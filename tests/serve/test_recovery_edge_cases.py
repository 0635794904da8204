"""Recovery edge cases: zero-byte journals, all-corrupt snapshot dirs,
checkpoints torn mid-write."""

import dataclasses

import pytest

from repro.logs.io import write_jsonl
from repro.obs import Observability
from repro.serve.durability import recover_serving_state
from repro.serve.durability.journal import Journal
from repro.serve.durability.snapshot import SnapshotStore
from repro.serve.fallback import FallbackChain
from repro.serve.fixtures import make_synthetic_model
from repro.serve.stream import (
    RetrainController,
    StreamConfig,
    StreamSupervisor,
    TailIngester,
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
        first = _supervisor(tmp_path, live, max_apply_per_cycle=8)
        first.run(max_cycles=3)
        ckpt_dir = tmp_path / "state" / "checkpoints"
        # Tear the two newest: the parting checkpoint duplicates the last
        # cycle's, so one generation back still holds the same count.
        for path in sorted(ckpt_dir.glob("snapshot-*.json"))[-2:]:
            blob = path.read_bytes()
            path.write_bytes(blob[: len(blob) // 2])

        second = _supervisor(tmp_path, live, max_apply_per_cycle=8)
        flat = second.obs.registry.flat()
        assert flat["stream_checkpoint_fallbacks_total"] == 2.0
        # It fell back to cycle 2's checkpoint (8 records per cycle).
        assert second.applied_records == first.applied_records - 8
        second.run(max_cycles=10)
        assert second.applied_records == 40      # and still loses nothing


def _fake_fit(task):
    src, dst, _arr = task
    return dataclasses.replace(make_synthetic_model(0), src=src, dst=dst)


def _supervisor(tmp_path, live, **config_overrides):
    from repro.logs.io import read_jsonl
    from repro.serve.stream import RetrainPolicy

    obs = Observability.create(trace=False)
    store, _ = read_jsonl(live, strict=False)
    config = dict(poll_interval_s=0.0, max_apply_per_cycle=16,
                  checkpoint_every=1)
    config.update(config_overrides)
    controller = RetrainController(
        FallbackChain.from_log(store), obs.drift, tmp_path / "artifacts",
        policy=RetrainPolicy(min_fit_rows=4, buffer_rows=64, cooldown_s=1e9),
        fit_fn=_fake_fit, registry=obs.registry)
    return StreamSupervisor(
        TailIngester(live, registry=obs.registry),
        controller, tmp_path / "state", obs=obs,
        config=StreamConfig(**config), sleep=lambda _s: None)
