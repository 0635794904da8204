"""Log round-trip IO: CSV and JSONL, with strict and lenient ingestion.

The paper published its (anonymised) training/testing data [27]; these
helpers give the reproduction the same capability, and let experiments
cache expensive simulation runs on disk.

Production Globus logs are noisy (§4.3 is devoted to "unknown load" and
log imperfections), so ``read_csv``/``read_jsonl`` support two modes:

- **strict** (default): any malformed line or invariant violation raises,
  exactly what replay experiments want — a corrupt cache should fail loudly;
- **lenient** (``strict=False``): bad rows are *quarantined* into a
  structured :class:`QuarantineReport` (line number, field, reason
  category, raw text) and the clean remainder is returned, which is what
  a serving pipeline ingesting live telemetry wants.  Lenient reads
  return a ``(LogStore, QuarantineReport)`` pair.

Both readers accept a ``registry`` (:class:`~repro.obs.MetricsRegistry`):
rows read, rows kept, and quarantined violations per reason category are
counted into ``ingest_rows_total`` / ``ingest_rows_kept_total`` /
``ingest_quarantined_total{reason=...}`` so ingestion health shows up in
the same export as the serving metrics.  They also accept a ``tracer``
(:class:`~repro.obs.Tracer`): each read is wrapped in an
``ingest.read_csv`` / ``ingest.read_jsonl`` span carrying the final
``rows``/``kept`` counts.

``repro-tools logs validate`` wraps the lenient path as a CLI linter.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.logs.schema import LOG_DTYPE, batch_has_violations, record_violations
from repro.logs.store import LogStore
from repro.obs import MetricsRegistry, Tracer
from repro.obs.tracing import maybe_span

__all__ = [
    "write_csv",
    "read_csv",
    "write_jsonl",
    "read_jsonl",
    "parse_log_lines",
    "QuarantinedRow",
    "QuarantineReport",
]

_FLOAT_FIELDS = {"ts", "te", "nb", "distance_km"}
_INT_FIELDS = {"transfer_id", "nf", "nd", "c", "p", "nflt"}

_RAW_TRUNCATE = 160

# Rows per bulk-ingestion batch.  Each batch is first parsed column-wise
# (numpy converts whole string columns at once); only a batch that fails
# the vectorized parse or trips an invariant falls back to the row loop,
# which re-derives the exact per-row quarantine verdicts.
_BULK_BATCH = 2048


@dataclass(frozen=True)
class QuarantinedRow:
    """One quarantined violation: where it was, what was wrong.

    A single input line can contribute several rows (one per violated
    field); ``line_no`` groups them back together.  ``category`` is a
    stable machine-readable reason key (``invalid_json``,
    ``column_shape``, ``invariant_<field>``, ...) suitable for metric
    labels, where ``reason`` stays human-readable free text.
    """

    line_no: int
    field: str
    reason: str
    raw: str = ""
    category: str = ""

    @property
    def reason_key(self) -> str:
        """The stable category, falling back to the field name for rows
        written before categories existed."""
        return self.category or self.field.strip("<>") or "unknown"


@dataclass
class QuarantineReport:
    """Structured record of everything lenient ingestion refused.

    Round-trips through :meth:`as_dict` / :meth:`from_dict` so a serving
    pipeline can persist the report next to the ingested store and audit
    quarantined telemetry later.
    """

    source: str = ""
    total_rows: int = 0
    kept_rows: int = 0
    rows: list[QuarantinedRow] = field(default_factory=list)

    def add(
        self,
        line_no: int,
        field_name: str,
        reason: str,
        raw: str = "",
        category: str = "",
    ) -> None:
        self.rows.append(
            QuarantinedRow(
                line_no=line_no,
                field=field_name,
                reason=reason,
                raw=raw[:_RAW_TRUNCATE],
                category=category,
            )
        )

    @property
    def quarantined_rows(self) -> int:
        """Distinct input lines quarantined (not violation count)."""
        return len({r.line_no for r in self.rows})

    @property
    def ok(self) -> bool:
        return not self.rows

    def reason_counts(self) -> dict[str, int]:
        """Violations per stable reason category, sorted by category.

        Counts *violations*, not lines: a line missing three fields
        contributes 3 to ``missing_field``; :attr:`quarantined_rows` has
        the distinct-line count.
        """
        counts: dict[str, int] = {}
        for r in self.rows:
            key = r.reason_key
            counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))

    def as_dict(self) -> dict:
        return {
            "source": self.source,
            "total_rows": self.total_rows,
            "kept_rows": self.kept_rows,
            "reason_counts": self.reason_counts(),
            "rows": [asdict(r) for r in self.rows],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "QuarantineReport":
        # reason_counts is derived, never read back.
        return cls(
            source=d.get("source", ""),
            total_rows=int(d.get("total_rows", 0)),
            kept_rows=int(d.get("kept_rows", 0)),
            rows=[QuarantinedRow(**r) for r in d.get("rows", [])],
        )

    def summary(self) -> str:
        lines = [
            f"{self.source or '<log>'}: {self.kept_rows}/{self.total_rows} "
            f"rows kept, {self.quarantined_rows} quarantined"
        ]
        if self.rows:
            by_reason = ", ".join(
                f"{k}={n}" for k, n in self.reason_counts().items()
            )
            lines.append(f"  violations by reason: {by_reason}")
        for r in self.rows:
            lines.append(f"  line {r.line_no}: [{r.field}] {r.reason}")
        return "\n".join(lines)

    def to_event(self) -> dict:
        """Attrs payload for one structured ``ingest`` event — the bridge
        into :class:`repro.obs.events.EventLog` (which deliberately does
        not import this module).  Carries the aggregate shape only, never
        per-line rows, so burst aggregation stays one event per window::

            events.emit("ingest", "quarantine", **report.to_event())
        """
        total = self.total_rows
        return {
            "source": self.source,
            "total_rows": total,
            "kept_rows": self.kept_rows,
            "quarantined_rows": self.quarantined_rows,
            "rate": self.quarantined_rows / total if total else 0.0,
            "reasons": self.reason_counts(),
        }

    def count_into(self, registry: MetricsRegistry, fmt: str) -> None:
        """Mirror this report into ingestion counters on ``registry``."""
        labels = {"format": fmt}
        registry.counter(
            "ingest_rows_total", "Input rows seen by the log readers.",
            labels=labels,
        ).inc(self.total_rows)
        registry.counter(
            "ingest_rows_kept_total", "Rows that passed parsing + invariants.",
            labels=labels,
        ).inc(self.kept_rows)
        for reason, n in self.reason_counts().items():
            registry.counter(
                "ingest_quarantined_total",
                "Quarantined violations by reason category.",
                labels={"format": fmt, "reason": reason},
            ).inc(n)


def write_csv(store: LogStore, path: str | Path) -> None:
    """Write a store to CSV with a header row."""
    path = Path(path)
    data = store.raw()
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_DTYPE.names)
        for row in data:
            writer.writerow([row[name].item() for name in LOG_DTYPE.names])


def read_csv(
    path: str | Path,
    strict: bool = True,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
):
    """Read a store written by :func:`write_csv`.

    With ``strict=True`` (default) the first malformed line raises
    ``ValueError``; with ``strict=False`` bad rows are quarantined and the
    return value is a ``(LogStore, QuarantineReport)`` pair.  A
    ``registry`` receives ingestion counters (rows read/kept, quarantined
    violations per reason) for reads that complete; a ``tracer`` records
    the read as an ``ingest.read_csv`` span.
    """
    path = Path(path)
    report = QuarantineReport(source=str(path))
    chunks: list[np.ndarray] = []
    with maybe_span(tracer, "ingest.read_csv") as span:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                if strict:
                    raise ValueError(f"{path}: empty file (no CSV header)")
                report.add(0, "<header>", "empty file (no CSV header)",
                           category="bad_header")
            elif tuple(header) != LOG_DTYPE.names:
                if strict:
                    raise ValueError(
                        f"unexpected CSV header in {path}: {header}"
                    )
                report.add(1, "<header>", f"unexpected CSV header: {header}",
                           category="bad_header")
                header = None
            if header is not None:
                batch: list[tuple[int, list[str]]] = []
                for line_no, raw in enumerate(reader, 2):
                    if not raw:
                        continue
                    report.total_rows += 1
                    batch.append((line_no, raw))
                    if len(batch) >= _BULK_BATCH:
                        _flush_csv_batch(path, batch, strict, report, chunks)
                        batch = []
                _flush_csv_batch(path, batch, strict, report, chunks)
        arr = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=LOG_DTYPE)
        )
        report.kept_rows = int(len(arr))
        span.attrs["rows"] = report.total_rows
        span.attrs["kept"] = report.kept_rows
    if registry is not None:
        report.count_into(registry, "csv")
    store = LogStore(arr)
    return store if strict else (store, report)


def _flush_csv_batch(
    path: Path,
    batch: list[tuple[int, list[str]]],
    strict: bool,
    report: QuarantineReport,
    chunks: list[np.ndarray],
) -> None:
    """Append one batch's clean rows to ``chunks`` (bulk first, row loop
    on any anomaly), preserving input order."""
    if not batch:
        return
    arr = _bulk_csv_rows(batch)
    if arr is None:
        rows = []
        for line_no, raw in batch:
            row = _ingest_csv_row(path, line_no, raw, strict, report)
            if row is not None:
                rows.append(row)
        arr = (
            np.array(rows, dtype=LOG_DTYPE)
            if rows else np.empty(0, dtype=LOG_DTYPE)
        )
    if len(arr):
        chunks.append(arr)


def _bulk_csv_rows(batch: list[tuple[int, list[str]]]) -> np.ndarray | None:
    """Vectorized parse of a CSV batch into LOG_DTYPE, or None if any row
    needs the (quarantining, strict-raising) row loop.

    numpy's string-to-number conversions reject the same literals Python's
    ``float``/``int`` reject, so a batch that parses cleanly here parses
    identically row by row; :func:`batch_has_violations` then clears the
    invariants in one pass.  Any anomaly — wrong column count, parse
    failure, possible violation — rejects the whole batch rather than
    guessing which row caused it.
    """
    n_cols = len(LOG_DTYPE.names)
    if any(len(raw) != n_cols for _, raw in batch):
        return None
    arr = np.empty(len(batch), dtype=LOG_DTYPE)
    try:
        for i, name in enumerate(LOG_DTYPE.names):
            col = [raw[i] for _, raw in batch]
            if name in _FLOAT_FIELDS:
                arr[name] = np.array(col, dtype=np.float64)
            elif name in _INT_FIELDS:
                arr[name] = np.array(col, dtype=np.int64)
            else:
                arr[name] = col
    except (ValueError, OverflowError):
        return None
    if batch_has_violations(arr):
        return None
    return arr


def _ingest_csv_row(
    path: Path,
    line_no: int,
    raw: list[str],
    strict: bool,
    report: QuarantineReport,
) -> tuple | None:
    raw_text = ",".join(raw)
    if len(raw) != len(LOG_DTYPE.names):
        if strict:
            raise ValueError(
                f"{path}:{line_no}: expected {len(LOG_DTYPE.names)} columns, "
                f"got {len(raw)}"
            )
        report.add(
            line_no, "<row>",
            f"expected {len(LOG_DTYPE.names)} columns, got {len(raw)}",
            raw_text,
            category="column_shape",
        )
        return None
    try:
        values = dict(zip(LOG_DTYPE.names, _parse_row(raw)))
    except ValueError as exc:
        if strict:
            raise ValueError(f"{path}:{line_no}: {exc}") from exc
        report.add(line_no, "<row>", f"unparseable value: {exc}", raw_text,
                   category="unparseable_value")
        return None
    return _validated(path, line_no, values, raw_text, strict, report)


def write_jsonl(store: LogStore, path: str | Path) -> None:
    """Write a store as one JSON object per line."""
    path = Path(path)
    data = store.raw()
    with path.open("w") as fh:
        for row in data:
            obj = {name: row[name].item() for name in LOG_DTYPE.names}
            fh.write(json.dumps(obj) + "\n")


def read_jsonl(
    path: str | Path,
    strict: bool = True,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
):
    """Read a store written by :func:`write_jsonl`.

    Same contract as :func:`read_csv`: strict mode raises on the first bad
    line (including a truncated final line); ``strict=False`` quarantines
    bad lines and returns ``(LogStore, QuarantineReport)``; a ``registry``
    receives ingestion counters; a ``tracer`` records the read as an
    ``ingest.read_jsonl`` span.
    """
    path = Path(path)
    report = QuarantineReport(source=str(path))
    chunks: list[np.ndarray] = []
    with maybe_span(tracer, "ingest.read_jsonl") as span:
        with path.open() as fh:
            batch: list[tuple[int, str]] = []
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                report.total_rows += 1
                batch.append((line_no, line))
                if len(batch) >= _BULK_BATCH:
                    _flush_jsonl_batch(path, batch, strict, report, chunks)
                    batch = []
            _flush_jsonl_batch(path, batch, strict, report, chunks)
        arr = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=LOG_DTYPE)
        )
        report.kept_rows = int(len(arr))
        span.attrs["rows"] = report.total_rows
        span.attrs["kept"] = report.kept_rows
    if registry is not None:
        report.count_into(registry, "jsonl")
    store = LogStore(arr)
    return store if strict else (store, report)


def _ingest_jsonl_row(
    path: Path,
    line_no: int,
    line: str,
    strict: bool,
    report: QuarantineReport,
) -> tuple | None:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        if strict:
            raise ValueError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
        report.add(line_no, "<row>", f"invalid JSON: {exc}", line,
                   category="invalid_json")
        return None
    if not isinstance(obj, dict):
        if strict:
            raise ValueError(f"{path}:{line_no}: expected a JSON object")
        report.add(line_no, "<row>", "expected a JSON object", line,
                   category="not_object")
        return None
    missing = set(LOG_DTYPE.names) - set(obj)
    if missing:
        if strict:
            raise ValueError(
                f"{path}:{line_no}: missing fields {sorted(missing)}"
            )
        for name in sorted(missing):
            report.add(line_no, name, "missing field", line,
                       category="missing_field")
        return None
    return _validated(path, line_no, obj, line, strict, report)


def _flush_jsonl_batch(
    path: Path,
    batch: list[tuple[int, str]],
    strict: bool,
    report: QuarantineReport,
    chunks: list[np.ndarray],
) -> None:
    """Append one batch's clean rows to ``chunks`` (bulk first, row loop
    on any anomaly), preserving input order."""
    if not batch:
        return
    arr = _bulk_jsonl_rows(batch)
    if arr is None:
        rows = []
        for line_no, line in batch:
            row = _ingest_jsonl_row(path, line_no, line, strict, report)
            if row is not None:
                rows.append(row)
        arr = (
            np.array(rows, dtype=LOG_DTYPE)
            if rows else np.empty(0, dtype=LOG_DTYPE)
        )
    if len(arr):
        chunks.append(arr)


def _bulk_jsonl_rows(batch: list[tuple[int, str]]) -> np.ndarray | None:
    """Vectorized conversion of a JSONL batch into LOG_DTYPE, or None if
    any line needs the row loop.

    The JSON itself is still parsed line by line (there is no columnar
    JSON parse), but the field-type checks, numeric conversion, and
    invariant validation run column-wise.  Guards are conservative: a
    bool where a number belongs, a non-number in a numeric field, or a
    non-string in a string field all reject the whole batch, so the row
    loop — not this fast path — decides what gets quarantined.
    """
    objs = []
    for _, line in batch:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            return None
        if not isinstance(obj, dict) or set(LOG_DTYPE.names) - set(obj):
            return None
        objs.append(obj)
    arr = np.empty(len(objs), dtype=LOG_DTYPE)
    try:
        for name in LOG_DTYPE.names:
            col = [o[name] for o in objs]
            if name in _FLOAT_FIELDS or name in _INT_FIELDS:
                if any(
                    isinstance(v, bool) or not isinstance(v, (int, float))
                    for v in col
                ):
                    return None
                dtype = np.float64 if name in _FLOAT_FIELDS else np.int64
                arr[name] = np.array(col, dtype=dtype)
            else:
                if any(not isinstance(v, str) for v in col):
                    return None
                arr[name] = col
    except (ValueError, OverflowError):
        return None
    if batch_has_violations(arr):
        return None
    return arr


def parse_log_lines(
    lines: list[tuple[int, str]],
    fmt: str,
    report: QuarantineReport,
) -> np.ndarray:
    """Lenient incremental parse of already-split log lines.

    The batch readers above own whole files; a tail ingester owns a file
    *suffix* and hands decoded lines here as ``(line_no, text)`` pairs.
    Parsing, quarantining, and the bulk-first fast path are identical to
    ``read_csv(strict=False)`` / ``read_jsonl(strict=False)``, and counts
    accumulate into ``report`` across calls, so one report can describe a
    whole tail session.  CSV lines must be data rows — the caller owns
    consuming and validating the header.  Returns the kept rows as a
    ``LOG_DTYPE`` array in input order.
    """
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown log format: {fmt!r}")
    path = Path(report.source or "<stream>")
    chunks: list[np.ndarray] = []
    csv_batch: list[tuple[int, list[str]]] = []
    jsonl_batch: list[tuple[int, str]] = []
    for line_no, text in lines:
        text = text.strip()
        if not text:
            continue
        report.total_rows += 1
        if fmt == "csv":
            csv_batch.append((line_no, next(csv.reader([text]))))
            if len(csv_batch) >= _BULK_BATCH:
                _flush_csv_batch(path, csv_batch, False, report, chunks)
                csv_batch = []
        else:
            jsonl_batch.append((line_no, text))
            if len(jsonl_batch) >= _BULK_BATCH:
                _flush_jsonl_batch(path, jsonl_batch, False, report, chunks)
                jsonl_batch = []
    _flush_csv_batch(path, csv_batch, False, report, chunks)
    _flush_jsonl_batch(path, jsonl_batch, False, report, chunks)
    arr = np.concatenate(chunks) if chunks else np.empty(0, dtype=LOG_DTYPE)
    report.kept_rows += int(len(arr))
    return arr


def _validated(
    path: Path,
    line_no: int,
    values: dict,
    raw_text: str,
    strict: bool,
    report: QuarantineReport,
) -> tuple | None:
    """Invariant-check a parsed record; returns its LOG_DTYPE tuple or None."""
    violations = record_violations(values)
    if violations:
        if strict:
            detail = "; ".join(f"{f}: {r}" for f, r in violations)
            raise ValueError(f"{path}:{line_no}: {detail}")
        for field_name, reason in violations:
            report.add(line_no, field_name, reason, raw_text,
                       category=f"invariant_{field_name}")
        return None
    return tuple(values[name] for name in LOG_DTYPE.names)


def _parse_row(row: list[str]) -> tuple:
    out = []
    for name, value in zip(LOG_DTYPE.names, row):
        if name in _FLOAT_FIELDS:
            out.append(float(value))
        elif name in _INT_FIELDS:
            out.append(int(value))
        else:
            out.append(value)
    return tuple(out)
