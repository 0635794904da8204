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
- **lenient parsing**: complete lines run the batch readers' one line
  path (:mod:`repro.logs.io`), so the tail quarantines per line what
  ``read_csv``/``read_jsonl(strict=False)`` quarantine instead of
  stalling.
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
from repro.logs.io import (QuarantineReport, consume_header, decode_lines,
                          parse_log_lines)
from repro.obs import MetricsRegistry
from repro.obs.events import EventLog, QuarantineBurstDetector

__all__ = ["TailIngester", "TailBatch", "TailError"]

# Bytes of file head hashed into the rotation signature.
_SIGNATURE_BYTES = 4096

# Read-retry backoff (seconds, exponential with jitter), the run of
# failed reads that raises TailError, and the quarantine-burst window
# (rows) and rate that raise an ingest alert.
BACKOFF_BASE_S = 0.05
BACKOFF_MAX_S = 5.0
BACKOFF_JITTER = 0.25
MAX_CONSECUTIVE_ERRORS = 8
BURST_WINDOW_ROWS = 256
BURST_MAX_RATE = 0.05


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
    first_line_no: int
    last_line_no: int
    quarantined: int


class TailIngester:
    """Follow one growing CSV/JSONL log file with durable position."""

    def __init__(
        self,
        path: str | Path,
        fmt: str | None = None,
        registry: MetricsRegistry | None = None,
        seed: int = 0,
        events: EventLog | None = None,
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
        self.report = QuarantineReport(source=str(self.path))
        self.events = events
        self.burst: QuarantineBurstDetector | None = None
        if events is not None:
            self.burst = QuarantineBurstDetector(
                events,
                window_rows=BURST_WINDOW_ROWS,
                max_rate=BURST_MAX_RATE,
                source=self.path.name,
            )

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
        try:
            size = self.path.stat().st_size
            with self.path.open("rb") as fh:
                self._detect_replacement(fh, size)
                if size <= self.offset:
                    self._mark_ok(lag=0)
                    return None
                fh.seek(self.offset)
                blob = fh.read(size - self.offset)
        except OSError as exc:
            self._mark_error(exc)
            return None
        self._mark_ok(lag=len(blob))

        # Only consume through the last newline: a half-written trailing
        # line stays in the file for the next poll.
        cut = blob.rfind(b"\n")
        if cut < 0:
            return None
        blob = blob[: cut + 1]
        start_offset = self.offset
        end_offset = self.offset + len(blob)

        delta = QuarantineReport(source=str(self.path))
        first_line_no = self.line_no + 1
        lines = decode_lines(blob, first_line_no)
        if self.fmt == "csv" and not self.header_consumed:
            self.header_consumed, lines = consume_header(lines, delta)
        records = parse_log_lines(lines, self.fmt, delta)

        # Commit the position only after the whole batch parsed.
        self.offset = end_offset
        self.line_no += blob.count(b"\n")
        self._update_signature()
        self._merge(delta)
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
            records=records,
            start_offset=start_offset,
            end_offset=end_offset,
            first_line_no=first_line_no,
            last_line_no=self.line_no,
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

    def _update_signature(self) -> None:
        want = min(self.offset, _SIGNATURE_BYTES)
        try:
            with self.path.open("rb") as fh:
                head = fh.read(want)
        except OSError:
            return  # keep the previous signature; next poll retries
        self.signature = hashlib.sha256(head).hexdigest()
        self.signature_len = len(head)

    def _merge(self, delta: QuarantineReport) -> None:
        self.report.total_rows += delta.total_rows
        self.report.kept_rows += delta.kept_rows
        self.report.rows.extend(delta.rows)

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
