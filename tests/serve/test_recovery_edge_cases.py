"""Recovery edge cases: zero-byte journals, all-corrupt snapshot dirs,
checkpoints torn mid-write (a snapshot, or a journal record), and a
bit-flip inside a journal record that carries a published model."""

import dataclasses
import json
import struct

import pytest

from repro.logs.io import read_jsonl, write_jsonl
from repro.ml.persistence import model_to_dict
from repro.obs import Observability
from repro.serve.durability import recover_serving_state
from repro.serve.durability.journal import Journal
from repro.serve.durability.snapshot import SnapshotStore
from repro.serve.fallback import FallbackChain
from repro.serve.fixtures import make_synthetic_model
from repro.serve.stream import (
    RetrainController,
    RetrainPolicy,
    StreamConfig,
    StreamSupervisor,
    TailIngester,
    fold_digest,
)
from tests.core.conftest import make_random_store


class TestZeroByteJournal:
    def test_scan_is_empty(self, tmp_path):
        wal = tmp_path / "wal-00000000.log"
        wal.write_bytes(b"")
        scan = Journal.scan_file(wal)
        assert scan.records == []
        assert scan.truncated_bytes == 0

    def test_recovery_treats_it_as_cold_start(self, tmp_path):
        (tmp_path / "wal-00000000.log").write_bytes(b"")
        state, report = recover_serving_state(tmp_path)
        try:
            assert report.snapshot_generation == 0
            assert report.replayed_records == 0
            assert state.last_seq == 0
        finally:
            state.close()

    def test_zero_byte_segment_after_snapshot(self, tmp_path):
        state, _ = recover_serving_state(tmp_path)
        state.snapshot()
        state.close()
        # The rotated-open segment is empty on disk; recovery must not
        # mistake it for corruption.
        state, report = recover_serving_state(tmp_path)
        try:
            assert report.snapshot_generation == 1
            assert report.replayed_records == 0
        finally:
            state.close()


class TestAllCorruptSnapshots:
    def _poison(self, directory):
        directory.mkdir(parents=True, exist_ok=True)
        for gen in (1, 2):
            (directory / f"snapshot-{gen:08d}.json").write_text(
                "{definitely not a checkpoint")

    def test_store_falls_back_to_none(self, tmp_path):
        self._poison(tmp_path)
        store = SnapshotStore(tmp_path)
        assert store.load_latest() is None
        assert store.generations() == [1, 2]

    def test_recovery_cold_starts(self, tmp_path):
        self._poison(tmp_path)
        state, report = recover_serving_state(tmp_path)
        try:
            assert report.snapshot_generation == 0   # full cold start
            assert report.last_seq == 0
        finally:
            state.close()

    def test_supervisor_cold_starts_past_the_corpses(self, tmp_path):
        live = tmp_path / "live.jsonl"
        write_jsonl(make_random_store(n=20, n_endpoints=4, seed=2), live)
        self._poison(tmp_path / "state" / "checkpoints")
        supervisor = _supervisor(tmp_path, live)
        assert supervisor.applied_records == 0      # nothing recoverable
        supervisor.run(max_cycles=5)
        assert supervisor.applied_records == 20
        # New checkpoints must number past the corrupt generations
        # instead of colliding with them.
        assert supervisor.status()["checkpoint_generation"] > 2


class TestTornCheckpoint:
    def test_store_falls_back_a_generation(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write(1, {"s": {"v": 1}}, last_seq=10)
        store.write(2, {"s": {"v": 2}}, last_seq=20)
        path = tmp_path / "snapshot-00000002.json"
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])    # torn mid-write
        loaded = store.load_latest()
        assert loaded.generation == 1
        assert loaded.payload["s"] == {"v": 1}
        assert 2 in loaded.rejected

    def test_supervisor_resumes_from_previous_generation(self, tmp_path):
        live = tmp_path / "live.jsonl"
        write_jsonl(make_random_store(n=40, n_endpoints=4, seed=6), live)
        kept, _ = read_jsonl(live, strict=False)
        first = _supervisor(tmp_path, live, max_apply_per_cycle=2)
        # Cycle until a second snapshot has journal records behind it.
        for _ in range(60):
            first.cycle()
            if first.obs.registry.flat().get("stream_snapshots_total", 0) \
                    >= 2 and first.status()["journal_records"]:
                break
        live_status = first.status()
        assert live_status["checkpoint_generation"] >= 2
        assert live_status["applied_records"] < 40
        ckpt_dir = tmp_path / "state" / "checkpoints"
        newest = max(SnapshotStore(ckpt_dir).generations())
        path = ckpt_dir / f"snapshot-{newest:08d}.json"
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])    # torn mid-write

        second = _supervisor(tmp_path, live, max_apply_per_cycle=2)
        flat = second.obs.registry.flat()
        assert flat["stream_checkpoint_fallbacks_total"] == 1.0
        # The previous snapshot plus its segment, then the open one, is
        # the whole durable state: a corrupt snapshot costs a longer
        # replay, not records.
        status = second.status()
        for key in ("applied_records", "applied_digest", "tail_offset",
                    "backlog_records", "cycles"):
            assert status[key] == live_status[key], key
        # ...plus the one event the resumed incarnation emits.
        assert status["event_seq"] == live_status["event_seq"] + 1
        assert status["journal_records"] > live_status["journal_records"]
        second.run(max_cycles=40)
        assert second.applied_records == 40      # and still loses nothing
        assert second.applied_digest == fold_digest("", kept.raw())

    def test_records_past_a_double_fault_are_never_folded(self, tmp_path):
        live = tmp_path / "live.jsonl"
        write_jsonl(make_random_store(n=40, n_endpoints=4, seed=6), live)
        kept, _ = read_jsonl(live, strict=False)
        first = _supervisor(tmp_path, live, max_apply_per_cycle=2)
        for _ in range(60):
            first.cycle()
            if first.obs.registry.flat().get("stream_snapshots_total", 0) \
                    >= 2 and first.status()["journal_records"]:
                break
        ckpt_dir = tmp_path / "state" / "checkpoints"
        newest = max(SnapshotStore(ckpt_dir).generations())
        # Rot both the newest snapshot and the last record before it:
        # the fallback's fold stops there, and the newer segment's
        # records no longer extend anything.
        snapshot = ckpt_dir / f"snapshot-{newest:08d}.json"
        snapshot.write_bytes(snapshot.read_bytes()[:100])
        segment = ckpt_dir / f"wal-{newest - 1:08d}.log"
        blob = bytearray(segment.read_bytes())
        blob[-1] ^= 0xFF
        segment.write_bytes(bytes(blob))

        second = _supervisor(tmp_path, live, max_apply_per_cycle=2)
        rolled_back = second.applied_records
        assert rolled_back < first.applied_records
        assert second.applied_digest == fold_digest(
            "", kept.raw()[:rolled_back])
        second.run(max_cycles=60)
        assert second.applied_records == 40
        assert second.applied_digest == fold_digest("", kept.raw())
        third = _supervisor(tmp_path, live, max_apply_per_cycle=2)
        assert third.applied_records == 40
        assert third.applied_digest == second.applied_digest

    def test_supervisor_rolls_back_one_torn_journal_record(self, tmp_path):
        live = tmp_path / "live.jsonl"
        write_jsonl(make_random_store(n=40, n_endpoints=4, seed=6), live)
        kept, _ = read_jsonl(live, strict=False)
        first = _supervisor(tmp_path, live, max_apply_per_cycle=8)
        first.cycle()                   # first checkpoint: snapshot 1
        first.cycle()
        previous = first.status()
        segment = first.segments.journal.path
        start = segment.stat().st_size
        first.cycle()                   # the record to tear
        assert first.segments.journal.path == segment   # no compaction
        blob = segment.read_bytes()
        assert len(blob) > start and first.applied_records == 24

        for cut in range(start, len(blob)):
            segment.write_bytes(blob[:cut])
            second = _supervisor(tmp_path, live, max_apply_per_cycle=8)
            status = second.status()
            assert status["applied_records"] == previous["applied_records"]
            assert status["applied_digest"] == previous["applied_digest"]
            assert status["tail_offset"] == previous["tail_offset"]
            assert "stream_checkpoint_fallbacks_total" not in \
                second.obs.registry.flat()
            assert segment.stat().st_size == start, cut  # torn bytes cut

        second.run(max_cycles=10)
        assert second.applied_records == 40
        assert second.applied_digest == fold_digest("", kept.raw())


class TestJournalBitFlip:
    def test_flipped_publish_record_stops_the_fold(self, tmp_path):
        """One byte flipped inside a journal record that republishes an
        edge, with a newer record behind it: the fold stops before it,
        the chain serves the generation committed before it, and the
        run re-applies the rest to the exact digest."""
        live = tmp_path / "live.jsonl"
        write_jsonl(make_random_store(n=60, n_endpoints=4, seed=11), live)
        kept, _ = read_jsonl(live, strict=False)
        first = _supervisor(tmp_path, live, fit_fn=_row_seeded_fit,
                            max_apply_per_cycle=3, cooldown_s=0.0,
                            min_samples=3)
        committed = {}      # seq -> (applied, generations, served models)
        checkpoint = first.checkpoint

        def capture():
            generation = checkpoint()
            committed[first._seq] = (first.applied_records,
                                     dict(first.controller._published),
                                     _served(first))
            return generation

        first.checkpoint = capture
        target = None
        for _ in range(60):
            first.cycle()
            frames = _frames(first.segments.journal.path)
            target = next((
                (offset, length, record)
                for (offset, length, record), _ in zip(frames, frames[1:])
                if any(g is not None and g >= 2
                       for _, _, g, _ in record["retrain"]["published"])),
                None)
            if target is not None:
                break
        assert target is not None, "no republish followed by a record"
        offset, length, record = target
        segment = first.segments.journal.path
        blob = bytearray(segment.read_bytes())
        blob[offset + 8 + length // 2] ^= 0x01
        segment.write_bytes(bytes(blob))

        second = _supervisor(tmp_path, live, fit_fn=_row_seeded_fit,
                             max_apply_per_cycle=3, cooldown_s=0.0,
                             min_samples=3)
        applied, generations, served = committed[record["seq"] - 1]
        assert all(generations.get((src, dst)) != g
                   for src, dst, g, _ in record["retrain"]["published"])
        assert second.applied_records == applied
        assert second.controller._published == generations
        assert _served(second) == served
        assert "durability_rollback_total" not in \
            second.obs.registry.flat()
        second.run(max_cycles=60)
        assert second.applied_records == len(kept)
        assert second.applied_digest == fold_digest("", kept.raw())


def _frames(path) -> list[tuple[int, int, dict]]:
    """(offset, payload length, record) for each frame of a segment."""
    data = path.read_bytes()
    out, offset = [], 0
    while offset < len(data):
        length, _crc = struct.unpack_from("<II", data, offset)
        out.append((offset, length,
                    json.loads(data[offset + 8:offset + 8 + length])))
        offset += 8 + length
    return out


def _served(sup) -> dict:
    """The chain's published models, as encoded documents."""
    chain = sup.controller.chain.edge_models
    return {edge: model_to_dict(chain[edge].model)
            for edge in sup.controller._published}


def _fake_fit(task):
    src, dst, _arr = task
    return dataclasses.replace(make_synthetic_model(0), src=src, dst=dst)


def _row_seeded_fit(task):
    # A different model for every buffer size, so generations differ.
    src, dst, arr = task
    return dataclasses.replace(make_synthetic_model(len(arr)),
                               src=src, dst=dst)


def _supervisor(tmp_path, live, fit_fn=_fake_fit, cooldown_s=1e9,
                min_samples=12, **config_overrides):
    obs = Observability.create(trace=False)
    store, _ = read_jsonl(live, strict=False)
    config = dict(poll_interval_s=0.0, max_apply_per_cycle=16,
                  checkpoint_every=1)
    config.update(config_overrides)
    controller = RetrainController(
        FallbackChain.from_log(store), obs.drift,
        policy=RetrainPolicy(min_samples=min_samples, min_fit_rows=4,
                             buffer_rows=64, cooldown_s=cooldown_s),
        fit_fn=fit_fn, registry=obs.registry)
    return StreamSupervisor(
        TailIngester(live, registry=obs.registry),
        controller, tmp_path / "state", obs=obs,
        config=StreamConfig(**config), sleep=lambda _s: None)
