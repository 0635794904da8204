"""One reader, one verdict: a whole-file read and a stream tail of the
same bytes keep the same rows and quarantine the same lines.

``read_csv``/``read_jsonl(strict=False)`` and :class:`TailIngester` run
one line path (decode, CSV header, parse), so every damaged file below
must read the same through every way in: the batch reader, the batch
reader taking the file in small blocks, a tail that sees the whole file
in one poll, and a tail fed in appends that cut lines mid-way.
"""

import numpy as np
import pytest

from repro.logs import io
from repro.logs.io import read_csv, read_jsonl, write_csv, write_jsonl
from repro.serve.stream import TailIngester
from tests.core.conftest import make_random_store

N_ROWS = 40
APPEND_BYTES = 37   # prime: most appends end mid-line


def _bad_byte(lines, fmt):
    row = 3 if fmt == "csv" else 2
    lines[row] = lines[row][:10] + b"\xff" + lines[row][10:]
    return lines


def _bad_byte_in_header(lines, fmt):
    """For CSV the header itself is undecodable: it is still the header
    (``bad_header``), and every row after it is data."""
    lines[0] = lines[0][:3] + b"\xff" + lines[0][3:]
    return lines


def _whitespace_line(lines, fmt):
    return lines[:5] + [b"  \t \n"] + lines[5:]


def _blank_before_header(lines, fmt):
    return [b"\n", b"   \n"] + lines


def _bad_header_then_rows(lines, fmt):
    return [b"completely,wrong,header\n"] + lines[1:]


def _truncated_last_line(lines, fmt):
    return lines[:-1] + [lines[-1][: len(lines[-1]) // 2] + b"\n"]


def _crlf(lines, fmt):
    return [line[:-1] + b"\r\n" for line in lines]


def _bare_cr(lines, fmt):
    """A lone ``\\r`` inside a row: not a line end, and a CSV field
    the csv module refuses to split."""
    lines[4] = lines[4].replace(b",", b",\r", 1)
    return lines


DAMAGE = [_bad_byte, _bad_byte_in_header, _whitespace_line,
          _blank_before_header, _bad_header_then_rows, _truncated_last_line,
          _crlf, _bare_cr]


@pytest.fixture(scope="module")
def store():
    return make_random_store(n=N_ROWS, n_endpoints=4, seed=17)


def _damaged(tmp_path, store, fmt, damage):
    path = tmp_path / f"log.{fmt}"
    (write_csv if fmt == "csv" else write_jsonl)(store, path)
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(damage(lines, fmt)))
    return path


def _tail(path, fmt, blob, step):
    """Tail ``blob`` appended to a fresh file ``step`` bytes at a time."""
    path.write_bytes(b"")
    tail = TailIngester(path, fmt=fmt)
    kept = []
    for start in range(0, len(blob), step):
        with path.open("ab") as fh:
            fh.write(blob[start:start + step])
        batch = tail.poll()
        if batch is not None:
            kept.append(batch.records)
    return np.concatenate(kept), tail.report


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("damage", DAMAGE, ids=lambda d: d.__name__[1:])
def test_batch_read_equals_tail(tmp_path, monkeypatch, store, fmt, damage):
    path = _damaged(tmp_path, store, fmt, damage)
    blob = path.read_bytes()
    reader = read_csv if fmt == "csv" else read_jsonl
    batch_store, batch_report = reader(path, strict=False)
    assert 0 < len(batch_store) <= N_ROWS

    with monkeypatch.context() as mp:   # a whole-file read in small blocks
        mp.setattr(io, "_READ_BLOCK", APPEND_BYTES)
        blocked_store, blocked_report = reader(path, strict=False)
    assert np.array_equal(blocked_store.raw(), batch_store.raw())
    assert blocked_report.as_dict() == batch_report.as_dict()

    live = tmp_path / f"live.{fmt}"
    for step in (len(blob), APPEND_BYTES):
        kept, report = _tail(live, fmt, blob, step)
        assert np.array_equal(kept, batch_store.raw()), step
        assert report.total_rows == batch_report.total_rows, step
        assert report.kept_rows == batch_report.kept_rows, step
        assert report.reason_counts() == batch_report.reason_counts(), step


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_verdicts(tmp_path, store, fmt):
    """What each damage costs: blank lines and CRLF cost nothing, a bare
    ``\\r`` costs a CSV row (JSON reads it as whitespace)."""
    reader = read_csv if fmt == "csv" else read_jsonl
    verdicts = {}
    for damage in DAMAGE:
        _, report = reader(_damaged(tmp_path, store, fmt, damage),
                           strict=False)
        verdicts[damage.__name__[1:]] = (report.total_rows, report.kept_rows,
                                         report.reason_counts())
    clean = (N_ROWS, N_ROWS, {})
    bad_first_line = (
        (N_ROWS, N_ROWS, {"bad_header": 1}) if fmt == "csv"
        else (N_ROWS, N_ROWS - 1, {"invalid_json": 1}))
    bad_first_line_byte = (
        (N_ROWS, N_ROWS, {"bad_header": 1}) if fmt == "csv"
        else (N_ROWS, N_ROWS - 1, {"encoding": 1}))
    truncated = (
        (N_ROWS, N_ROWS - 1, {"column_shape": 1}) if fmt == "csv"
        else (N_ROWS, N_ROWS - 1, {"invalid_json": 1}))
    assert verdicts == {
        "bad_byte": (N_ROWS, N_ROWS - 1, {"encoding": 1}),
        "bad_byte_in_header": bad_first_line_byte,
        "whitespace_line": clean,
        "blank_before_header": clean,
        "bad_header_then_rows": bad_first_line,
        "truncated_last_line": truncated,
        "crlf": clean,
        "bare_cr": ((N_ROWS, N_ROWS - 1, {"column_shape": 1}) if fmt == "csv"
                    else clean),
    }


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_strict_stops_at_the_first_bad_block(tmp_path, monkeypatch, store,
                                            fmt):
    """A strict read raises once the block holding the first quarantined
    line is parsed; the blocks after it are never parsed."""
    path = _damaged(tmp_path, store, fmt, _bad_byte)
    monkeypatch.setattr(io, "_READ_BLOCK", 256)
    parsed = []
    parse = io.parse_log_lines
    monkeypatch.setattr(
        io, "parse_log_lines",
        lambda lines, *a: parsed.append(lines) or parse(lines, *a))
    reader = read_csv if fmt == "csv" else read_jsonl
    line_no = 4 if fmt == "csv" else 3
    with pytest.raises(ValueError,
                       match=f":{line_no}: \\[<row>\\] undecodable"):
        reader(path)
    assert line_no <= parsed[-1][-1][0] < N_ROWS
