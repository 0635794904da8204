"""Tests for the durability layer: journal framing, snapshot store, recovery.

The crash-equivalence acceptance property itself (kill anywhere, tear the
journal at any byte offset, recover, prove bit-identical state) lives in
``test_crash_replay.py``; this file covers the building blocks and the
recovery edge cases directly.
"""

import json
import math

import pytest

from repro.atomicio import checksum_payload, checksummed_json
from repro.core.online import ActiveTransferView
from repro.obs import Observability
from repro.serve import mutation
from repro.serve.durability import (
    DurabilityConfig,
    Journal,
    SnapshotStore,
    recover_serving_state,
)
from repro.serve.durability.journal import _HEADER
from repro.serve.mutation import ServingState


def _view(src="A", dst="B", rate=1e8, started_at=0.0):
    return ActiveTransferView(src=src, dst=dst, rate=rate, started_at=started_at)


def _feed(state, n=12):
    """A small deterministic mutation mix touching every mutation op."""
    endpoints = ("JLAB", "NERSC", "ORNL")
    for i in range(n):
        src = endpoints[i % 3]
        dst = endpoints[(i + 1) % 3]
        state.apply(mutation.add(
            100 + i, _view(src, dst, rate=1e8 + i * 1e6, started_at=float(i))))
        if i % 3 == 0:
            state.apply(mutation.progress(100 + i, rate=2e8 + i))
        if i % 4 == 0 and i:
            state.apply(mutation.complete(100 + i - 1))
            state.apply(mutation.drift(src, dst, "edge", 1.1e8, 1e8))


# -- journal ------------------------------------------------------------------


class TestJournalFraming:
    def _write(self, path, n=5):
        with Journal(path) as journal:
            for seq in range(1, n + 1):
                journal.append({"seq": seq, "op": "noop", "i": seq * 11})
        return path.read_bytes()

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "wal.log"
        self._write(path)
        records = list(Journal(path).replay())
        assert [r["seq"] for r in records] == [1, 2, 3, 4, 5]

    def test_missing_file_scans_empty(self, tmp_path):
        scan = Journal.scan_file(tmp_path / "nope.log")
        assert scan.records == [] and scan.torn is None
        assert scan.truncated_bytes == 0

    def test_torn_tail_at_every_byte_offset(self, tmp_path):
        """Killing the writer at ANY byte offset must yield a clean record
        prefix plus a reported tear — never a parse error, never a
        corrupted record sneaking through."""
        path = tmp_path / "wal.log"
        data = self._write(path, n=4)
        # Frame boundaries: offsets where a cut is NOT a tear.
        boundaries = set()
        offset = 0
        while offset < len(data):
            boundaries.add(offset)
            length, _ = _HEADER.unpack_from(data, offset)
            offset += _HEADER.size + length
        boundaries.add(len(data))

        for cut in range(len(data) + 1):
            torn_path = tmp_path / "torn.log"
            torn_path.write_bytes(data[:cut])
            scan = Journal.scan_file(torn_path)
            n_complete = sum(1 for b in sorted(boundaries) if b <= cut) - 1
            assert len(scan.records) == n_complete, f"cut at {cut}"
            assert [r["seq"] for r in scan.records] == list(
                range(1, n_complete + 1))
            if cut in boundaries:
                assert scan.torn is None
            else:
                assert scan.torn is not None
                assert scan.truncated_bytes == cut - scan.valid_bytes > 0

    def test_crc_mismatch_detected(self, tmp_path):
        path = tmp_path / "wal.log"
        data = bytearray(self._write(path, n=3))
        data[-2] ^= 0xFF  # flip a payload byte in the last record
        path.write_bytes(bytes(data))
        scan = Journal.scan_file(path)
        assert len(scan.records) == 2
        assert scan.torn is not None and scan.torn.reason == "crc_mismatch"

    def test_open_for_append_truncates_tear(self, tmp_path):
        path = tmp_path / "wal.log"
        data = self._write(path, n=3)
        path.write_bytes(data[:-4])  # tear the last record
        with Journal(path) as journal:
            journal.append({"seq": 3, "op": "noop"})  # seq 3 reusable: its
            # predecessor was torn away, so the last intact record is seq 2
        records = list(Journal(path).replay())
        assert [r["seq"] for r in records] == [1, 2, 3]

    def test_seq_must_increase(self, tmp_path):
        with Journal(tmp_path / "wal.log") as journal:
            journal.append({"seq": 5, "op": "noop"})
            with pytest.raises(ValueError):
                journal.append({"seq": 5, "op": "noop"})
            with pytest.raises(ValueError):
                journal.append({"seq": 4, "op": "noop"})
            journal.append({"seq": 6, "op": "noop"})

    def test_nan_payload_rejected(self, tmp_path):
        with Journal(tmp_path / "wal.log") as journal:
            with pytest.raises(ValueError):
                journal.append({"seq": 1, "op": "noop", "x": float("nan")})


# -- snapshot store -----------------------------------------------------------


class TestSnapshotStore:
    def test_write_load_roundtrip(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write(1, {"active": {"views": []}}, last_seq=7)
        payload = store.load(1)
        assert payload["last_seq"] == 7
        assert payload["active"] == {"views": []}

    def test_reserved_keys_rejected(self, tmp_path):
        store = SnapshotStore(tmp_path)
        with pytest.raises(ValueError):
            store.write(1, {"last_seq": 3}, last_seq=3)

    def test_existing_generation_refused(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write(1, {}, last_seq=1)
        with pytest.raises(ValueError):
            store.write(1, {}, last_seq=2)

    def test_missing_generation(self, tmp_path):
        with pytest.raises(ValueError):
            SnapshotStore(tmp_path).load(3)

    def test_checksum_verified(self, tmp_path):
        store = SnapshotStore(tmp_path)
        path = store.write(1, {"x": 1}, last_seq=1)
        doc = json.loads(path.read_text())
        doc["x"] = 2  # tamper without updating the checksum
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="checksum"):
            store.load(1)

    def test_file_is_its_canonical_body_plus_checksum(self, tmp_path):
        store = SnapshotStore(tmp_path)
        sections = {"z": [1.5, 2], "active": {"views": ["caf\u00e9"]}}
        path = store.write(1, sections, last_seq=4)
        text = path.read_text()
        doc = json.loads(text)
        assert text == checksummed_json(doc)
        assert text.endswith(f'"checksum": "{doc["checksum"]}"}}')
        assert store.load(1)["z"] == [1.5, 2]

    def test_snapshot_from_the_two_encode_writer_still_loads(self, tmp_path):
        # The earlier writer: checksum over a canonical encode, then a
        # second, insertion-ordered encode of the payload.
        store = SnapshotStore(tmp_path)
        path = store.write(1, {"active": {"b": 1, "a": [0.1]}}, last_seq=2)
        doc = json.loads(path.read_text())
        old = {"snapshot_format": doc["snapshot_format"], "generation": 2,
               "last_seq": 3, "active": {"b": 1, "a": [0.1]}}
        old["checksum"] = checksum_payload(old)
        store.path_for(2).write_text(json.dumps(old, allow_nan=False))
        assert store.load(2) == old
        assert store.load_latest().generation == 2

    def test_load_latest_falls_back_past_corruption(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write(1, {"x": 1}, last_seq=1)
        store.write(2, {"x": 2}, last_seq=2)
        store.write(3, {"x": 3}, last_seq=3)
        # Corrupt the two newest generations two different ways.
        store.path_for(3).write_text("not json at all")
        blob = bytearray(store.path_for(2).read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        store.path_for(2).write_bytes(bytes(blob))
        loaded = store.load_latest()
        assert loaded.generation == 1
        assert loaded.rejected == (3, 2)
        assert loaded.payload["x"] == 1

    def test_load_latest_empty_dir(self, tmp_path):
        assert SnapshotStore(tmp_path / "missing").load_latest() is None

    def test_prune_keeps_predecessors(self, tmp_path):
        store = SnapshotStore(tmp_path)
        for generation in range(1, 6):
            store.write(generation, {}, last_seq=generation)
        assert store.prune(keep=2) == [1, 2, 3]
        assert store.generations() == [4, 5]
        with pytest.raises(ValueError):
            store.prune(keep=1)


# -- recovery -----------------------------------------------------------------


class TestRecovery:
    def test_empty_directory_is_cold_start(self, tmp_path):
        state, report = recover_serving_state(tmp_path / "fresh")
        assert report.snapshot_generation == 0
        assert report.replayed_records == 0
        assert report.last_seq == 0
        assert len(state.active) == 0
        state.close()

    def test_journal_only_cold_start(self, tmp_path):
        """Crash before the first snapshot: recovery must rebuild the
        whole state from the gen-0 journal segment alone."""
        state, _ = recover_serving_state(tmp_path)
        _feed(state)
        fingerprint = state.state_fingerprint()
        last_seq = state.last_seq
        state.close()

        recovered, report = recover_serving_state(tmp_path)
        assert report.snapshot_generation == 0
        assert report.replayed_records == last_seq
        assert report.last_seq == last_seq
        assert recovered.state_fingerprint() == fingerprint
        recovered.close()

    def test_snapshot_plus_suffix(self, tmp_path):
        state, _ = recover_serving_state(tmp_path)
        _feed(state, n=8)
        state.snapshot()
        state.apply(mutation.add(300, _view("X", "Y")))
        fingerprint = state.state_fingerprint()
        state.close()

        recovered, report = recover_serving_state(tmp_path)
        assert report.snapshot_generation == 1
        assert report.replayed_records == 1  # only the post-snapshot add
        assert recovered.state_fingerprint() == fingerprint
        recovered.close()

    def test_torn_tail_truncated(self, tmp_path):
        state, _ = recover_serving_state(tmp_path)
        _feed(state)
        before_cut = state.last_seq
        wal = state.segments.path_for(state.generation)
        state.close()
        size = wal.stat().st_size
        with wal.open("r+b") as fh:
            fh.truncate(size - 5)

        recovered, report = recover_serving_state(tmp_path)
        assert report.truncated_bytes > 0
        assert len(report.torn) == 1
        assert report.last_seq == before_cut - 1  # exactly one record lost
        recovered.close()

    def test_corrupt_snapshot_falls_back_a_generation(self, tmp_path):
        config = DurabilityConfig(keep_snapshots=3)
        state, _ = recover_serving_state(tmp_path, config=config)
        _feed(state, n=6)
        state.snapshot()
        _feed(state, n=4)
        state.snapshot()
        fingerprint = state.state_fingerprint()
        path = state.snapshots.path_for(2)
        state.close()
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))

        recovered, report = recover_serving_state(tmp_path, config=config)
        assert report.snapshot_generation == 1
        assert report.snapshot_fallbacks == 1
        # Replay of the gen-1..2 journal suffix recovers everything the
        # corrupted snapshot held.
        assert recovered.state_fingerprint() == fingerprint
        # New snapshots continue past the corrupt generation, not into it.
        assert recovered.snapshot() == 3
        recovered.close()

    def test_journaling_consumes_no_state(self, tmp_path):
        """The same mutation sequence with and without durability must
        leave bit-identical working state (journaling is a pure tap)."""
        durable, _ = recover_serving_state(tmp_path)
        _feed(durable, n=10)

        plain = ServingState()
        _feed(plain, n=10)
        assert durable.active.snapshot_state() == plain.active.snapshot_state()
        assert durable.drift.dump_state() == plain.drift.dump_state()
        durable.close()

    def test_auto_snapshot_cadence_and_wal_pruning(self, tmp_path):
        config = DurabilityConfig(snapshot_every=5, keep_snapshots=2)
        state, _ = recover_serving_state(tmp_path, config=config)
        _feed(state, n=20)
        assert state.generation >= 3
        generations = state.snapshots.generations()
        assert len(generations) <= 2
        # Journal segments older than the oldest kept snapshot are gone
        # (including the gen-0 cold-start segment).
        segments = state.segments.generations()
        assert min(segments) >= min(generations)
        state.close()

    def test_durability_metrics_exported(self, tmp_path):
        obs = Observability.create(trace=False)
        state, _ = recover_serving_state(tmp_path, obs=obs)
        _feed(state, n=6)
        state.snapshot()
        state.close()
        flat = obs.registry.flat()
        assert flat["durability_journal_records_total"] > 0
        assert flat["durability_journal_bytes_total"] > 0
        assert flat["durability_snapshots_total"] == 1
        assert flat["durability_recoveries_total"] == 1
        assert flat["durability_snapshot_generation"] == 1

    def test_journal_byte_and_record_totals(self, tmp_path):
        """The WAL counters count exactly the framed bytes and records each
        append wrote, across snapshot rotations to fresh segments."""
        obs = Observability.create(trace=False)
        config = DurabilityConfig(snapshot_every=7)
        state, _ = recover_serving_state(tmp_path, obs=obs, config=config)
        fed = []
        apply = state.apply

        def tap(record):
            fed.append(mutation.decode(record).record)
            apply(record)

        state.apply = tap
        _feed(state, n=20)
        state.close()
        assert state.generation >= 2  # rotated at least twice
        framed = sum(
            _HEADER.size + len(json.dumps({"seq": seq, "m": record},
                                          allow_nan=False).encode("utf-8"))
            for seq, record in enumerate(fed, start=1)
        )
        flat = obs.registry.flat()
        assert flat["durability_journal_records_total"] == len(fed) == 35
        assert flat["durability_journal_bytes_total"] == framed == 4724

    def test_restored_counters_continue_not_double_count(self, tmp_path):
        """Registry totals restored from a snapshot plus journal-suffix
        replay must equal an uninterrupted run's totals."""
        state, _ = recover_serving_state(tmp_path)
        _feed(state, n=9)
        state.snapshot()
        _feed(state, n=3)
        expected = state.registry.flat()["active_set_adds_total"]
        state.close()

        recovered, _ = recover_serving_state(tmp_path)
        assert recovered.registry.flat()["active_set_adds_total"] == expected
        recovered.close()

    def test_journal_carries_the_canonical_record(self, tmp_path):
        state, _ = recover_serving_state(tmp_path)
        state.apply(mutation.add(7, _view()))
        state.apply(["progress", 7, "nan", None])
        wal = state.segments.path_for(state.generation)
        state.close()
        records = list(Journal(wal).replay())
        assert records == [
            {"seq": 1, "m": mutation.add(7, _view())},
            {"seq": 2, "m": ["progress", 7, "nan", None]},
        ]

    def test_malformed_record_never_reaches_the_journal(self, tmp_path):
        state, _ = recover_serving_state(tmp_path)
        with pytest.raises(ValueError):
            state.apply(["add", 1, {"src": "A"}])
        with pytest.raises(ValueError):
            state.apply(["progress", 1, None, None])
        assert state.last_seq == 0
        state.close()
        _, report = recover_serving_state(tmp_path)
        assert report.replayed_records == 0

    def test_strict_replay_rejects_what_the_live_state_refused(self, tmp_path):
        """Strict mode journals before it applies, so a refused mutation
        consumes a seq live and is refused again, and counted, on replay."""
        state, _ = recover_serving_state(tmp_path, lenient=False)
        state.apply(mutation.add(1, _view()))
        with pytest.raises(ValueError):
            state.apply(mutation.progress(1, rate=math.nan))
        with pytest.raises(KeyError):
            state.apply(mutation.complete(99))
        assert state.last_seq == 3
        fingerprint = state.state_fingerprint()
        state.close()

        recovered, report = recover_serving_state(tmp_path, lenient=False)
        assert report.replayed_records == 3
        assert report.replay_rejected == 2
        assert recovered.state_fingerprint() == fingerprint
        recovered.close()
