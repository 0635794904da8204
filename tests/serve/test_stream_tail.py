"""TailIngester: offsets, partial lines, resets, retries, resume."""

import json

import pytest

from repro.logs import io
from repro.logs.io import write_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.serve.stream import TailError, TailIngester
from repro.serve.stream.tail import MAX_CONSECUTIVE_ERRORS
from tests.core.conftest import make_random_store


@pytest.fixture
def jsonl_lines(tmp_path):
    store = make_random_store(n=40, n_endpoints=4, seed=3)
    full = tmp_path / "full.jsonl"
    write_jsonl(store, full)
    return full.read_text().splitlines(keepends=True)


@pytest.fixture
def live(tmp_path):
    path = tmp_path / "live.jsonl"
    path.write_text("")
    return path


def _append(path, text):
    with path.open("a") as fh:
        fh.write(text)


class TestIncremental:
    def test_consumes_appends_exactly_once(self, live, jsonl_lines):
        tail = TailIngester(live)
        assert tail.poll() is None  # empty file
        _append(live, "".join(jsonl_lines[:10]))
        batch = tail.poll()
        assert len(batch.records) == 10
        assert batch.start_offset == 0
        assert batch.end_offset == tail.offset == live.stat().st_size
        assert tail.poll() is None  # nothing new
        _append(live, "".join(jsonl_lines[10:]))
        batch = tail.poll()
        assert len(batch.records) == 30
        assert tail.report.kept_rows == 40

    def test_partial_trailing_line_held_back(self, live, jsonl_lines):
        tail = TailIngester(live)
        first, second = jsonl_lines[0], jsonl_lines[1]
        cut = len(second) // 2
        _append(live, first + second[:cut])
        batch = tail.poll()
        assert len(batch.records) == 1          # only the complete line
        assert tail.offset == len(first.encode())
        assert tail.poll() is None              # still dangling
        _append(live, second[cut:])
        batch = tail.poll()
        assert len(batch.records) == 1
        assert tail.report.kept_rows == 2

    def test_corrupt_lines_quarantined_not_fatal(self, live, jsonl_lines):
        tail = TailIngester(live)
        _append(live, jsonl_lines[0] + "{not json\n" + jsonl_lines[1])
        batch = tail.poll()
        assert len(batch.records) == 2
        assert batch.quarantined == 1
        assert tail.report.total_rows == 3
        assert tail.report.kept_rows == 2

    def test_undecodable_bytes_quarantined(self, live, jsonl_lines):
        tail = TailIngester(live)
        _append(live, jsonl_lines[0])
        with live.open("ab") as fh:
            fh.write(b"\xff\xfe garbage \xff\n")
        batch = tail.poll()
        assert len(batch.records) == 1
        assert batch.quarantined == 1


class TestResume:
    def test_state_round_trip_resumes_exactly(self, live, jsonl_lines):
        tail = TailIngester(live, seed=1)
        _append(live, "".join(jsonl_lines[:25]))
        tail.poll()
        state = tail.state_dict()

        resumed = TailIngester(live, seed=1)
        resumed.load_state(state)
        assert resumed.poll() is None           # nothing new: no re-read
        _append(live, "".join(jsonl_lines[25:]))
        batch = resumed.poll()
        assert len(batch.records) == 15
        assert resumed.report.kept_rows == 40

    def test_quarantine_count_survives_restart(self, live, jsonl_lines):
        tail = TailIngester(live)
        _append(live, "{not json\n" * 20 + "".join(jsonl_lines[:5]))
        tail.poll()
        resumed = TailIngester(live)
        resumed.load_state(json.loads(json.dumps(tail.state_dict())))
        assert resumed.report.quarantined_rows == 20
        _append(live, "[1, 2]\n")
        resumed.poll()
        assert resumed.report.quarantined_rows == 21

    def test_checkpoint_without_count_loads_refused_rows(self, live):
        """A checkpoint written before the count was persisted."""
        tail = TailIngester(live)
        state = tail.state_dict()
        del state["quarantined_rows"]
        state.update(total_rows=30, kept_rows=26)
        tail.load_state(state)
        assert tail.report.quarantined_rows == 4

    def test_format_mismatch_rejected(self, live):
        tail = TailIngester(live, fmt="jsonl")
        state = tail.state_dict()
        other = TailIngester(live, fmt="csv")
        with pytest.raises(ValueError, match="does not match"):
            other.load_state(state)


class TestResets:
    def test_truncation_resets_and_reingests(self, live, jsonl_lines):
        registry = MetricsRegistry()
        tail = TailIngester(live, registry=registry)
        _append(live, "".join(jsonl_lines[:20]))
        tail.poll()
        live.write_text("".join(jsonl_lines[:5]))  # shrank below offset
        batch = tail.poll()
        assert len(batch.records) == 5
        assert tail.resets == 1
        flat = registry.flat()
        assert flat[
            'stream_tail_resets_total{reason="truncated"}'] == 1.0

    def test_rotation_detected_by_signature(self, live, jsonl_lines):
        registry = MetricsRegistry()
        tail = TailIngester(live, registry=registry)
        _append(live, "".join(jsonl_lines[:20]))
        tail.poll()
        # Same-or-larger size, different leading bytes: a replaced file.
        live.write_text("".join(jsonl_lines[20:40]) * 2)
        batch = tail.poll()
        assert len(batch.records) == 40
        assert tail.resets == 1
        assert registry.flat()[
            'stream_tail_resets_total{reason="rotated"}'] == 1.0


    def test_rotation_keeps_counting_quarantined_lines(self, live,
                                                      jsonl_lines):
        """Line numbers restart with the new file; the count does not."""
        tail = TailIngester(live)
        bad = jsonl_lines[:2] + ["{not json\n"] + jsonl_lines[2:6]
        _append(live, "".join(bad))
        tail.poll()
        assert tail.report.quarantined_rows == 1
        rotated = list(bad)
        rotated[0], rotated[4] = jsonl_lines[30], "[1, 2]\n"
        live.write_text("".join(rotated))       # bad lines 3 and 5
        tail.poll()
        assert tail.resets == 1
        assert tail.report.quarantined_rows == 3
        assert (tail.report.total_rows - tail.report.kept_rows) == 3


class TestSession:
    def test_session_keeps_counts_not_rows(self, live, jsonl_lines,
                                           monkeypatch):
        monkeypatch.setattr(io, "_READ_BLOCK", 64)
        tail = TailIngester(live)
        for i in range(30):
            _append(live, "{not json\n" * 3 + "[1]\n" + jsonl_lines[i])
            assert tail.poll().quarantined == 4
        assert tail.report.rows == []
        assert tail.report.quarantined_rows == 120
        assert tail.report.kept_rows == 30
        assert tail.report.reason_counts() == {"invalid_json": 90,
                                               "not_object": 30}


class TestRetries:
    def test_missing_file_backs_off_then_raises(self, tmp_path):
        tail = TailIngester(tmp_path / "never.jsonl")
        assert tail.next_delay(1.0) == 1.0      # healthy: idle interval
        delays = []
        for _ in range(MAX_CONSECUTIVE_ERRORS - 1):
            assert tail.poll() is None
            delays.append(tail.next_delay(0.0))
        assert 0 < delays[0] <= delays[1]       # exponential-ish growth
        with pytest.raises(
                TailError, match=f"{MAX_CONSECUTIVE_ERRORS} consecutive"):
            tail.poll()

    def test_recovery_clears_the_error_run(self, live, jsonl_lines):
        tail = TailIngester(live)
        live.unlink()
        for _ in range(MAX_CONSECUTIVE_ERRORS - 1):
            assert tail.poll() is None
        assert tail.consecutive_errors == MAX_CONSECUTIVE_ERRORS - 1
        live.write_text(jsonl_lines[0])
        assert len(tail.poll().records) == 1
        assert tail.consecutive_errors == 0
        assert tail.next_delay(0.5) == 0.5


class TestCsvHeader:
    def test_header_consumed_and_bad_header_quarantined(self, tmp_path):
        from repro.logs.io import write_csv

        store = make_random_store(n=6, n_endpoints=3, seed=5)
        src = tmp_path / "src.csv"
        write_csv(store, src)
        lines = src.read_text().splitlines(keepends=True)

        good = tmp_path / "good.csv"
        good.write_text("")
        tail = TailIngester(good, fmt="csv")
        _append(good, "".join(lines))
        batch = tail.poll()
        assert len(batch.records) == 6
        assert tail.header_consumed

        bad = tmp_path / "bad.csv"
        bad.write_text("completely,wrong,header\n" + "".join(lines[1:]))
        tail = TailIngester(bad, fmt="csv")
        batch = tail.poll()
        assert len(batch.records) == 6          # rows still parse
        assert tail.report.reason_counts() == {"bad_header": 1}
