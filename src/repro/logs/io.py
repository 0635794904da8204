"""Log round-trip IO: CSV and JSONL, with strict and lenient ingestion.

The paper published its (anonymised) training/testing data [27]; these
helpers give the reproduction the same capability, and let experiments
cache expensive simulation runs on disk.

Production Globus logs are noisy (§4.3 is devoted to "unknown load" and
log imperfections), so ``read_csv``/``read_jsonl`` support two modes:

- **strict** (default): the first quarantined line raises, exactly what
  replay experiments want — a corrupt cache should fail loudly;
- **lenient** (``strict=False``): bad rows are *quarantined* into a
  structured :class:`QuarantineReport` (line number, field, reason
  category, raw text) and the clean remainder is returned, which is what
  a serving pipeline ingesting live telemetry wants.  Lenient reads
  return a ``(LogStore, QuarantineReport)`` pair.

One ingest rule holds for both readers and for the stream tail
(:class:`repro.serve.stream.TailIngester`), because all three run one
line path, :func:`decode_lines` → :func:`consume_header` (CSV only) →
:func:`parse_log_lines`; a whole-file read is a tail read of the whole
file:

- a record is one ``\\n``-terminated line (a whole-file read also takes
  an unterminated last line; a tail holds it back until its newline
  lands), with surrounding whitespace (``\\r`` included) stripped;
- blank lines are skipped and are not rows;
- a line that is not UTF-8 is quarantined as ``encoding``;
- the CSV header is the first non-blank line; a wrong or undecodable one
  is quarantined as ``bad_header`` and the rows after it stand on their
  own;
- strict mode reads leniently, one block of lines at a time, and raises
  ``ValueError("<path>:<line>: [<field>] <reason>")`` for the first
  quarantined line once the block holding it is parsed.

Both readers accept a ``registry`` (:class:`~repro.obs.MetricsRegistry`):
rows read, rows kept, and quarantined violations per reason category are
counted into ``ingest_rows_total`` / ``ingest_rows_kept_total`` /
``ingest_quarantined_total{format=...,reason=...}`` so ingestion health
shows up in the same export as the serving metrics.  They also accept a
``tracer`` (:class:`~repro.obs.Tracer`): each read is wrapped in an
``ingest.read_csv`` / ``ingest.read_jsonl`` span carrying the final
``rows``/``kept`` counts.

``repro-tools logs validate`` wraps the lenient path as a CLI linter.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator

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
    "decode_lines",
    "consume_header",
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

# Bytes a whole-file read takes at a time; each block is cut after its
# last newline, so a read holds one block of text plus the kept rows.
_READ_BLOCK = 1 << 20


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

    With ``strict=True`` (default) the first quarantined line raises
    ``ValueError``; with ``strict=False`` bad rows are quarantined and the
    return value is a ``(LogStore, QuarantineReport)`` pair.  A
    ``registry`` receives ingestion counters (rows read/kept, quarantined
    violations per reason) for reads that complete; a ``tracer`` records
    the read as an ``ingest.read_csv`` span.
    """
    return _read(path, "csv", strict, registry, tracer)


def _read(
    path: str | Path,
    fmt: str,
    strict: bool,
    registry: MetricsRegistry | None,
    tracer: Tracer | None,
):
    """A whole-file read: the tail's line path over ``path``, one block of
    whole lines at a time (:func:`_line_blocks`).  Strict mode stops after
    the first block that quarantined a line."""
    path = Path(path)
    report = QuarantineReport(source=str(path))
    chunks: list[np.ndarray] = []
    line_no, header_seen = 1, fmt != "csv"
    with maybe_span(tracer, f"ingest.read_{fmt}") as span:
        with path.open("rb") as fh:
            for blob in _line_blocks(fh):
                lines = decode_lines(blob, line_no)
                line_no += len(lines)
                if not header_seen:
                    header_seen, lines = consume_header(lines, report)
                chunks.append(parse_log_lines(lines, fmt, report))
                if strict and report.rows:
                    break
        if not header_seen:
            report.add(0, "<header>", "empty file (no CSV header)",
                       category="bad_header")
        arr = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=LOG_DTYPE)
        )
        span.attrs["rows"] = report.total_rows
        span.attrs["kept"] = report.kept_rows
    if strict and report.rows:
        first = min(report.rows, key=lambda r: r.line_no)
        raise ValueError(
            f"{path}:{first.line_no}: [{first.field}] {first.reason}")
    if registry is not None:
        report.count_into(registry, fmt)
    store = LogStore(arr)
    return store if strict else (store, report)


def _line_blocks(fh) -> Iterator[bytes]:
    """The bytes of binary file ``fh`` as blocks of whole ``\\n``-terminated
    lines, about :data:`_READ_BLOCK` bytes each; the end of the file also
    ends its last line."""
    rest = b""
    for block in iter(lambda: fh.read(_READ_BLOCK), b""):
        cut = block.rfind(b"\n") + 1
        if cut:
            yield rest + block[:cut]
            rest = block[cut:]
        else:
            rest += block
    if rest:
        yield rest + b"\n"


def decode_lines(
    blob: bytes, line_no: int
) -> list[tuple[int, str | UnicodeDecodeError]]:
    """Split ``blob`` into its ``\\n``-terminated lines, numbered from
    ``line_no``; bytes after the last ``\\n`` are not a line.  A line that
    is not UTF-8 comes back as its ``UnicodeDecodeError`` (whose
    ``object`` holds the bytes): :func:`consume_header` and
    :func:`parse_log_lines` quarantine it."""
    lines: list[tuple[int, str | UnicodeDecodeError]] = []
    for n, raw in enumerate(blob.split(b"\n")[:-1], line_no):
        try:
            lines.append((n, raw.decode("utf-8")))
        except UnicodeDecodeError as exc:
            lines.append((n, exc))
    return lines


def consume_header(
    lines: list[tuple[int, str | UnicodeDecodeError]],
    report: QuarantineReport,
) -> tuple[bool, list[tuple[int, str | UnicodeDecodeError]]]:
    """CSV: the first non-blank line is the header.  Returns whether
    ``lines`` held one and the lines after it.  A wrong or undecodable
    header is quarantined (``bad_header``, not a row); the rows after it
    stand on their own."""
    for i, (line_no, text) in enumerate(lines):
        if isinstance(text, UnicodeDecodeError):
            text = _printable(text)
        text = text.strip()
        if not text:
            continue
        header = _csv_fields(text)
        if tuple(header) != LOG_DTYPE.names:
            report.add(line_no, "<header>", f"unexpected CSV header: {header}",
                       text, category="bad_header")
        return True, lines[i + 1:]
    return False, []


def parse_log_lines(
    lines: list[tuple[int, str | UnicodeDecodeError]],
    fmt: str,
    report: QuarantineReport,
) -> np.ndarray:
    """Lenient parse of ``(line_no, text)`` lines, as :func:`decode_lines`
    returns them, into a ``LOG_DTYPE`` array of the kept rows, in input
    order.

    Blank lines are skipped; every other line counts as a row, and an
    undecodable one is quarantined as ``encoding``.  Counts accumulate
    into ``report`` across calls, so one report can describe a whole
    file or tail session.  CSV lines must be data rows: the caller
    consumes the header (:func:`consume_header`).  Rows are parsed in
    batches of :data:`_BULK_BATCH`, column-wise first; only a batch that
    fails the vectorized parse or trips an invariant falls back to the
    row loop, which re-derives the exact per-row quarantine verdicts.
    """
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown log format: {fmt!r}")
    rows = []
    for line_no, text in lines:
        if isinstance(text, UnicodeDecodeError):
            report.total_rows += 1
            report.add(line_no, "<row>", f"undecodable bytes: {text}",
                       _printable(text), category="encoding")
            continue
        text = text.strip()
        if text:
            rows.append((line_no, text))
    report.total_rows += len(rows)
    chunks = [_flush(fmt, rows[i:i + _BULK_BATCH], report)
              for i in range(0, len(rows), _BULK_BATCH)]
    arr = np.concatenate(chunks) if chunks else np.empty(0, dtype=LOG_DTYPE)
    report.kept_rows += int(len(arr))
    return arr


def _printable(exc: UnicodeDecodeError) -> str:
    """An undecodable line's text, bad bytes as ``\\xNN`` escapes."""
    return exc.object.decode("utf-8", "backslashreplace")


def _flush(
    fmt: str, batch: list[tuple[int, str]], report: QuarantineReport
) -> np.ndarray:
    """One batch's clean rows in input order: the bulk parse, or the row
    loop on any anomaly."""
    texts = [text for _, text in batch]
    if fmt == "csv":
        fields = _split_csv(texts)
        arr = _bulk_csv_rows(fields)
        if arr is None:
            rows = [_ingest_csv_row(n, raw, report)
                    for (n, _), raw in zip(batch, fields)]
    else:
        arr = _bulk_jsonl_rows(texts)
        if arr is None:
            rows = [_ingest_jsonl_row(n, line, report) for n, line in batch]
    if arr is None:
        arr = np.array([r for r in rows if r is not None], dtype=LOG_DTYPE)
    return arr


def _split_csv(texts: list[str]) -> list[list[str]]:
    """Fields of each CSV line: one ``csv.reader`` pass over the batch,
    or line by line when a record ran across lines (an unclosed quote)
    or the reader refused one."""
    try:
        fields = list(csv.reader(texts))
    except csv.Error:
        fields = []
    if len(fields) == len(texts):
        return fields
    return [_csv_fields(text) for text in texts]


def _csv_fields(text: str) -> list[str]:
    """One line's CSV fields; a line the reader refuses is one field."""
    try:
        return next(csv.reader([text]))
    except csv.Error:
        return [text]


def _bulk_csv_rows(rows: list[list[str]]) -> np.ndarray | None:
    """Vectorized parse of a CSV batch into LOG_DTYPE, or None if any row
    needs the (quarantining) row loop.

    numpy's string-to-number conversions reject the same literals Python's
    ``float``/``int`` reject, so a batch that parses cleanly here parses
    identically row by row; :func:`_bulk_columns` converts and clears the
    invariants.  A wrong column count rejects the whole batch.
    """
    if any(len(row) != len(LOG_DTYPE.names) for row in rows):
        return None
    return _bulk_columns(list(zip(*rows)))


def _ingest_csv_row(
    line_no: int, raw: list[str], report: QuarantineReport
) -> tuple | None:
    raw_text = ",".join(raw)
    if len(raw) != len(LOG_DTYPE.names):
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
        report.add(line_no, "<row>", f"unparseable value: {exc}", raw_text,
                   category="unparseable_value")
        return None
    return _validated(line_no, values, raw_text, report)


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

    Same contract as :func:`read_csv`: strict mode raises on the first
    quarantined line (a truncated final line included); ``strict=False``
    quarantines bad lines and returns ``(LogStore, QuarantineReport)``; a
    ``registry`` receives ingestion counters; a ``tracer`` records the
    read as an ``ingest.read_jsonl`` span.
    """
    return _read(path, "jsonl", strict, registry, tracer)


def _ingest_jsonl_row(
    line_no: int, line: str, report: QuarantineReport
) -> tuple | None:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        report.add(line_no, "<row>", f"invalid JSON: {exc}", line,
                   category="invalid_json")
        return None
    if not isinstance(obj, dict):
        report.add(line_no, "<row>", "expected a JSON object", line,
                   category="not_object")
        return None
    missing = set(LOG_DTYPE.names) - set(obj)
    if missing:
        for name in sorted(missing):
            report.add(line_no, name, "missing field", line,
                       category="missing_field")
        return None
    return _validated(line_no, obj, line, report)


def _bulk_jsonl_rows(texts: list[str]) -> np.ndarray | None:
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
    for line in texts:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            return None
        if not isinstance(obj, dict) or set(LOG_DTYPE.names) - set(obj):
            return None
        objs.append(obj)
    cols = [[o[name] for o in objs] for name in LOG_DTYPE.names]
    for name, col in zip(LOG_DTYPE.names, cols):
        if name in _FLOAT_FIELDS or name in _INT_FIELDS:
            if any(
                isinstance(v, bool) or not isinstance(v, (int, float))
                for v in col
            ):
                return None
        elif any(not isinstance(v, str) for v in col):
            return None
    return _bulk_columns(cols)


def _bulk_columns(cols: list) -> np.ndarray | None:
    """One batch's columns as LOG_DTYPE rows, or None when a value does
    not convert or :func:`batch_has_violations` finds a possible
    violation: any anomaly rejects the whole batch rather than guessing
    which row caused it."""
    arr = np.empty(len(cols[0]), dtype=LOG_DTYPE)
    try:
        for name, col in zip(LOG_DTYPE.names, cols):
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


def _validated(
    line_no: int,
    values: dict,
    raw_text: str,
    report: QuarantineReport,
) -> tuple | None:
    """Invariant-check a parsed record; returns its LOG_DTYPE tuple or None."""
    violations = record_violations(values)
    if violations:
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
