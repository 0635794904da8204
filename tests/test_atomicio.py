"""Crash-safety tests for the shared atomic file writer (repro.atomicio)."""

import json

import pytest

from repro.atomicio import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    checksum_payload,
    checksummed_json,
)


class Boom(RuntimeError):
    """Simulated crash inside the write sequence."""


def _fault_at(stage):
    def hook(name):
        if name == stage:
            raise Boom(stage)
    return hook


class TestAtomicWrite:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"payload")
        assert path.read_bytes() == b"payload"

    def test_text_and_json(self, tmp_path):
        atomic_write_text(tmp_path / "t.txt", "héllo")
        assert (tmp_path / "t.txt").read_text() == "héllo"
        atomic_write_json(tmp_path / "p.json", {"a": [1, 2]})
        assert json.loads((tmp_path / "p.json").read_text()) == {"a": [1, 2]}

    def test_json_rejects_nan(self, tmp_path):
        with pytest.raises(ValueError):
            atomic_write_json(tmp_path / "bad.json", {"x": float("nan")})

    @pytest.mark.parametrize("stage", ["written", "synced"])
    def test_crash_before_replace_preserves_old_file(self, tmp_path, stage):
        """The acceptance property: a fault at any pre-replace stage leaves
        the previous content fully intact at the final path — never a
        partial payload — and cleans up the temp file."""
        path = tmp_path / "out.txt"
        atomic_write_text(path, "old content")
        with pytest.raises(Boom):
            atomic_write_text(path, "new content that is much longer",
                              _fault=_fault_at(stage))
        assert path.read_text() == "old content"
        assert list(tmp_path.iterdir()) == [path]  # temp file removed

    @pytest.mark.parametrize("stage", ["written", "synced"])
    def test_crash_on_first_write_leaves_nothing(self, tmp_path, stage):
        path = tmp_path / "never.txt"
        with pytest.raises(Boom):
            atomic_write_text(path, "doomed", _fault=_fault_at(stage))
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_crash_after_replace_keeps_new_file(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "old")
        with pytest.raises(Boom):
            atomic_write_text(path, "new", _fault=_fault_at("replaced"))
        assert path.read_text() == "new"


class TestChecksum:
    def test_order_independent(self):
        a = checksum_payload({"x": 1, "y": [2, 3]})
        b = checksum_payload({"y": [2, 3], "x": 1})
        assert a == b and len(a) == 64

    def test_excludes_checksum_key(self):
        payload = {"x": 1}
        payload["checksum"] = checksum_payload(payload)
        assert checksum_payload(payload) == payload["checksum"]

    def test_sensitive_to_content(self):
        assert checksum_payload({"x": 1}) != checksum_payload({"x": 2})

    def test_checksummed_json_is_one_canonical_encode(self):
        payload = {"z": [1.5, -0.0, 1e300], "a": {"y": "caf\u00e9", "b": None},
                   "n": 7, "checksum": "stale"}
        text = checksummed_json(payload)
        doc = json.loads(text)
        # The reader's verification: re-encode what it parsed.
        assert doc["checksum"] == checksum_payload(doc) \
            == checksum_payload(payload)
        assert {k: v for k, v in doc.items() if k != "checksum"} == {
            k: v for k, v in payload.items() if k != "checksum"}
        body = json.dumps({k: v for k, v in payload.items()
                           if k != "checksum"}, sort_keys=True)
        assert text == body[:-1] + f', "checksum": "{doc["checksum"]}"}}'

    def test_checksummed_json_empty_and_strict(self):
        assert json.loads(checksummed_json({}))["checksum"] == \
            checksum_payload({})
        with pytest.raises(ValueError):
            checksummed_json({"x": float("nan")})
