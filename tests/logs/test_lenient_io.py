"""Degenerate-input tests for strict vs lenient log ingestion
(repro.logs.io with strict=False + QuarantineReport round-trip)."""

import json

import numpy as np
import pytest

from repro.logs.io import (
    QuarantineReport,
    read_csv,
    read_jsonl,
    write_csv,
    write_jsonl,
)
from repro.logs.schema import LOG_DTYPE, TransferLogRecord, record_violations
from repro.logs.store import LogStore
from repro.obs import MetricsRegistry


def _record(i=0, **kw):
    defaults = dict(
        transfer_id=i, src="A-DTN", dst="B-DTN", src_site="A", dst_site="B",
        src_type="GCS", dst_type="GCP", ts=0.0, te=100.0, nb=1e9,
        nf=10, nd=2, c=2, p=4, nflt=0, distance_km=1500.0,
    )
    defaults.update(kw)
    return TransferLogRecord(**defaults)


@pytest.fixture()
def store():
    return LogStore.from_records([_record(i, ts=10.0 * i, te=10.0 * i + 50.0)
                                  for i in range(5)])


def _jsonl_line(i=0, **overrides):
    obj = {name: _record(i).as_row()[j] for j, name in enumerate(LOG_DTYPE.names)}
    obj.update(overrides)
    return json.dumps(obj)


class TestRecordViolations:
    def test_clean_record(self):
        values = dict(zip(LOG_DTYPE.names, _record().as_row()))
        assert record_violations(values) == []

    def test_each_invariant(self):
        base = dict(zip(LOG_DTYPE.names, _record().as_row()))
        for mutation, fld in [
            ({"te": -1.0}, "te"),
            ({"nb": 0.0}, "nb"),
            ({"nb": float("nan")}, "nb"),
            ({"nf": 0}, "nf"),
            ({"c": 0}, "c"),
            ({"p": -2}, "p"),
            ({"nd": -1}, "nd"),
            ({"nflt": -3}, "nflt"),
            ({"src_type": "FTP"}, "src_type"),
            ({"ts": float("inf")}, "ts"),
            ({"src": ""}, "src"),
            ({"nb": "big"}, "nb"),
        ]:
            bad = {**base, **mutation}
            fields = [f for f, _ in record_violations(bad)]
            assert fld in fields, mutation

    def test_missing_fields_reported_first(self):
        assert record_violations({}) == [
            (name, "missing field") for name in LOG_DTYPE.names
        ]


class TestCsvDegenerate:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            read_csv(path)
        loaded, report = read_csv(path, strict=False)
        assert len(loaded) == 0 and not report.ok
        assert report.rows[0].field == "<header>"

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text(",".join(LOG_DTYPE.names) + "\n")
        assert len(read_csv(path)) == 0
        loaded, report = read_csv(path, strict=False)
        assert len(loaded) == 0 and report.ok and report.total_rows == 0

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad_header.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="unexpected CSV header"):
            read_csv(path)
        loaded, report = read_csv(path, strict=False)
        assert len(loaded) == 0 and not report.ok

    def test_bad_rows_quarantined(self, store, tmp_path):
        path = tmp_path / "log.csv"
        write_csv(store, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("1000000000.0", "nan")   # NaN nb
        lines[3] = "not,enough,columns"
        lines.append(lines[1].replace("GCS", "BOGUS"))       # bad src_type
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            read_csv(path)
        loaded, report = read_csv(path, strict=False)
        assert len(loaded) == 3
        assert report.total_rows == 6 and report.kept_rows == 3
        assert report.quarantined_rows == 3
        by_field = {r.field for r in report.rows}
        assert {"nb", "<row>", "src_type"} <= by_field
        assert all(r.line_no >= 2 for r in report.rows)

    def test_unparseable_value(self, store, tmp_path):
        path = tmp_path / "log.csv"
        write_csv(store, path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("100", "one-hundred", 1)
        path.write_text("\n".join(lines) + "\n")
        loaded, report = read_csv(path, strict=False)
        assert len(loaded) == 4 and report.quarantined_rows == 1
        assert "unparseable" in report.rows[0].reason

    def test_lenient_on_clean_file_matches_strict(self, store, tmp_path):
        path = tmp_path / "log.csv"
        write_csv(store, path)
        strict = read_csv(path)
        lenient, report = read_csv(path, strict=False)
        assert report.ok and report.kept_rows == len(store)
        assert np.array_equal(strict.raw(), lenient.raw())


class TestJsonlDegenerate:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert len(read_jsonl(path)) == 0
        loaded, report = read_jsonl(path, strict=False)
        assert len(loaded) == 0 and report.ok

    def test_truncated_last_line(self, store, tmp_path):
        path = tmp_path / "log.jsonl"
        write_jsonl(store, path)
        text = path.read_text()
        path.write_text(text[: len(text) - 40])  # chop mid-object
        with pytest.raises(ValueError, match="invalid JSON"):
            read_jsonl(path)
        loaded, report = read_jsonl(path, strict=False)
        assert len(loaded) == len(store) - 1
        assert report.quarantined_rows == 1
        assert "invalid JSON" in report.rows[0].reason

    def test_nan_field_quarantined(self, store, tmp_path):
        # json.loads accepts bare NaN, so the invariant check must catch it.
        path = tmp_path / "log.jsonl"
        path.write_text(_jsonl_line(0) + "\n" + _jsonl_line(1, nb=float("nan"))
                        + "\n")
        with pytest.raises(ValueError, match="nb"):
            read_jsonl(path)
        loaded, report = read_jsonl(path, strict=False)
        assert len(loaded) == 1
        assert [r.field for r in report.rows] == ["nb"]

    def test_missing_fields_and_non_object(self, tmp_path):
        path = tmp_path / "log.jsonl"
        obj = json.loads(_jsonl_line(0))
        del obj["te"], obj["nb"]
        path.write_text(json.dumps(obj) + "\n[1, 2]\n" + _jsonl_line(2) + "\n")
        loaded, report = read_jsonl(path, strict=False)
        assert len(loaded) == 1
        fields = [r.field for r in report.rows]
        assert "te" in fields and "nb" in fields and "<row>" in fields

    def test_invariant_violation(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(_jsonl_line(0, te=-5.0) + "\n")
        with pytest.raises(ValueError, match="te"):
            read_jsonl(path)
        loaded, report = read_jsonl(path, strict=False)
        assert len(loaded) == 0 and report.rows[0].field == "te"

    def test_lenient_matches_strict_on_clean(self, store, tmp_path):
        path = tmp_path / "log.jsonl"
        write_jsonl(store, path)
        strict = read_jsonl(path)
        lenient, report = read_jsonl(path, strict=False)
        assert report.ok
        assert np.array_equal(strict.raw(), lenient.raw())


class TestQuarantineReportRoundTrip:
    def test_round_trip(self, store, tmp_path):
        path = tmp_path / "log.csv"
        write_csv(store, path)
        lines = path.read_text().splitlines()
        lines[2] = "garbage"
        path.write_text("\n".join(lines) + "\n")
        _, report = read_csv(path, strict=False)
        clone = QuarantineReport.from_dict(
            json.loads(json.dumps(report.as_dict()))
        )
        assert clone == report
        assert clone.rows == report.rows
        assert clone.quarantined_rows == report.quarantined_rows

    def test_summary_mentions_lines(self, store, tmp_path):
        path = tmp_path / "log.csv"
        write_csv(store, path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace("GCP", "XXX")
        path.write_text("\n".join(lines) + "\n")
        _, report = read_csv(path, strict=False)
        text = report.summary()
        assert "line 4" in text and "dst_type" in text
        assert "4/5 rows kept" in text
        assert "violations by reason" in text


def _corrupt_jsonl(tmp_path):
    """One line per reason category: bad JSON, non-object, missing
    fields, invariant violation, plus two clean rows."""
    path = tmp_path / "log.jsonl"
    obj = json.loads(_jsonl_line(3))
    del obj["te"], obj["nb"]
    path.write_text(
        "\n".join([
            _jsonl_line(0),
            "{this is not json",
            "[1, 2]",
            json.dumps(obj),
            _jsonl_line(4, te=-5.0),
            _jsonl_line(5),
        ]) + "\n"
    )
    return path


class TestQuarantineReasonCounts:
    def test_per_reason_counts(self, tmp_path):
        _, report = read_jsonl(_corrupt_jsonl(tmp_path), strict=False)
        assert report.reason_counts() == {
            "invalid_json": 1,
            "not_object": 1,
            "missing_field": 2,  # te and nb both missing on one line
            "invariant_te": 1,
        }
        assert report.quarantined_rows == 4
        assert report.as_dict()["reason_counts"] == report.reason_counts()

    def test_reason_counts_survive_round_trip(self, tmp_path):
        _, report = read_jsonl(_corrupt_jsonl(tmp_path), strict=False)
        clone = QuarantineReport.from_dict(
            json.loads(json.dumps(report.as_dict()))
        )
        assert clone.reason_counts() == report.reason_counts()

    def test_reason_key_falls_back_for_legacy_rows(self):
        report = QuarantineReport()
        report.add(1, "<row>", "old-style violation")
        report.add(2, "nb", "old-style field violation")
        assert report.reason_counts() == {"row": 1, "nb": 1}

    def test_counts_surface_through_metrics_exporter(self, tmp_path):
        registry = MetricsRegistry()
        _, report = read_jsonl(
            _corrupt_jsonl(tmp_path), strict=False, registry=registry
        )
        flat = registry.flat()
        assert flat['ingest_rows_total{format="jsonl"}'] == 6
        assert flat['ingest_rows_kept_total{format="jsonl"}'] == 2
        for reason, n in report.reason_counts().items():
            key = f'ingest_quarantined_total{{format="jsonl",reason="{reason}"}}'
            assert flat[key] == n
        prom = registry.to_prometheus()
        assert 'ingest_quarantined_total{format="jsonl",reason="invalid_json"} 1' \
            in prom

    def test_readers_emit_ingest_spans(self, store, tmp_path):
        from repro.obs import Tracer

        tracer = Tracer()
        jsonl = tmp_path / "log.jsonl"
        write_jsonl(store, jsonl)
        read_jsonl(jsonl, tracer=tracer)
        csv_path = tmp_path / "log.csv"
        write_csv(store, csv_path)
        read_csv(csv_path, strict=False, tracer=tracer)
        spans = {s.name: s for s in tracer.spans()}
        assert spans["ingest.read_jsonl"].attrs == {"rows": 5, "kept": 5}
        assert spans["ingest.read_csv"].attrs == {"rows": 5, "kept": 5}

    def test_csv_reader_counts_too(self, store, tmp_path):
        registry = MetricsRegistry()
        path = tmp_path / "log.csv"
        write_csv(store, path)
        lines = path.read_text().splitlines()
        lines[2] = "not,enough,columns"
        path.write_text("\n".join(lines) + "\n")
        _, report = read_csv(path, strict=False, registry=registry)
        flat = registry.flat()
        assert flat['ingest_rows_total{format="csv"}'] == 5
        assert flat['ingest_rows_kept_total{format="csv"}'] == 4
        assert flat['ingest_quarantined_total{format="csv",reason="column_shape"}'] == 1
        assert report.rows[0].reason_key == "column_shape"


class TestUndecodableBytes:
    """One byte that is not UTF-8 quarantines its line as ``encoding``;
    the other rows still load."""

    @pytest.fixture(params=["csv", "jsonl"])
    def damaged(self, request, store, tmp_path):
        fmt = request.param
        path = tmp_path / f"log.{fmt}"
        (write_csv if fmt == "csv" else write_jsonl)(store, path)
        lines = path.read_bytes().splitlines(keepends=True)
        bad = 2 if fmt == "csv" else 1          # the second data row
        lines[bad] = lines[bad].replace(b"A-DTN", b"A-\xffDTN", 1)
        path.write_bytes(b"".join(lines))
        reader = read_csv if fmt == "csv" else read_jsonl
        return reader, path, bad + 1

    def test_lenient_keeps_the_other_rows(self, damaged, store):
        reader, path, line_no = damaged
        loaded, report = reader(path, strict=False)
        keep = np.ones(len(store), dtype=bool)
        keep[1] = False
        assert np.array_equal(loaded.raw(), store.raw()[keep])
        assert report.reason_counts() == {"encoding": 1}
        assert report.total_rows == len(store)
        assert report.kept_rows == len(store) - 1
        assert report.rows[0].line_no == line_no

    def test_strict_names_the_path_and_line(self, damaged):
        reader, path, line_no = damaged
        with pytest.raises(ValueError) as exc:
            reader(path)
        assert str(exc.value).startswith(
            f"{path}:{line_no}: [<row>] undecodable bytes")
