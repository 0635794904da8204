"""One fault table for both durable consumers.

The serving state (:class:`DurableServingState`) and the stream
supervisor's checkpoints (:class:`StreamSupervisor`) keep one on-disk
log and recover through one scan.  Each is injured four ways:

- ``torn_tail`` — the newest segment's last record cut mid-frame;
- ``corrupt_snapshot`` — the newest snapshot fails its checksum;
- ``double_fault`` — the newest snapshot corrupt *and* one record in
  the middle of the segment behind it (the fallback's segment) rotted;
- ``missing_segment`` — the newest snapshot corrupt and the fallback's
  segment, the middle of three, gone (a missing segment is only read
  behind a fallback, so the cell corrupts the newest snapshot too).

Every cell must recover exactly the longest contiguous prefix of the
journal and say so (``last_seq`` / ``applied_records``), a second
recovery must equal the first, and re-delivering the suffix must reach
the uninterrupted twin.
"""

import dataclasses

import pytest

from repro.logs.io import read_jsonl, write_jsonl
from repro.obs import Observability
from repro.serve.chaos import ChaosConfig, make_durable_events
from repro.serve.durability import (
    DurabilityConfig,
    Journal,
    SnapshotStore,
    recover_serving_state,
)
from repro.serve.fallback import FallbackChain
from repro.serve.fixtures import make_synthetic_model
from repro.serve.mutation import ServingState
from repro.serve.stream import (
    RetrainController,
    RetrainPolicy,
    StreamConfig,
    StreamSupervisor,
    TailIngester,
    fold_digest,
)
from tests.core.conftest import make_random_store

FAULTS = ("torn_tail", "corrupt_snapshot", "double_fault",
          "missing_segment")


def _wal(directory, generation):
    return directory / f"wal-{generation:08d}.log"


def _snapshot(directory, generation):
    return directory / f"snapshot-{generation:08d}.json"


def _flip(path, offset):
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0xFF
    path.write_bytes(bytes(blob))


def _injure(directory, fault) -> int:
    """Apply ``fault`` to a log directory; return the seq of the last
    record the longest contiguous prefix still holds."""
    newest = max(SnapshotStore(directory).generations())
    segments = sorted(directory.glob("wal-*.log"))
    last = Journal.scan_file(segments[-1]).records
    if fault == "torn_tail":
        assert last, "the newest segment must hold a record to tear"
        path = segments[-1]
        with path.open("r+b") as fh:
            fh.truncate(path.stat().st_size - 17)
        return last[-1]["seq"] - 1
    expected = last[-1]["seq"] if last else SnapshotStore(directory).load(
        newest)["last_seq"]
    _flip(_snapshot(directory, newest), 40)
    if fault == "corrupt_snapshot":
        return expected
    behind = _wal(directory, newest - 1)
    records = Journal.scan_file(behind).records
    assert len(records) >= 2, "the fallback's segment needs records"
    if fault == "double_fault":
        # Rot one byte inside the payload of the middle record.
        k = len(records) // 2
        blob = behind.read_bytes()
        offset = 0
        for _ in range(k):
            length = int.from_bytes(blob[offset:offset + 4], "little")
            offset += 8 + length
        _flip(behind, offset + 8 + 4)
        return records[k]["seq"] - 1
    behind.unlink()
    return SnapshotStore(directory).load(newest - 1)["last_seq"]


# -- the serving state ---------------------------------------------------------

N_EVENTS = 230
SNAPSHOT_EVERY = 50


@pytest.fixture(scope="module")
def events():
    return make_durable_events(ChaosConfig.quick(seed=0))[:N_EVENTS]


def _twin(events):
    twin = ServingState(lenient=True)
    for event in events:
        twin.apply(event)
    return twin.state_fingerprint()


@pytest.mark.parametrize("fault", FAULTS)
def test_serving_state_recovers_the_longest_prefix(tmp_path, events, fault):
    config = DurabilityConfig(snapshot_every=SNAPSHOT_EVERY)
    state, _ = recover_serving_state(tmp_path, config=config)
    for event in events:
        state.apply(event)
    state.close()
    assert SnapshotStore(tmp_path).generations() == [2, 3, 4]
    expected = _injure(tmp_path, fault)

    first, report = recover_serving_state(tmp_path, config=config)
    assert report.last_seq == first.last_seq == expected
    assert first.state_fingerprint() == _twin(events[:expected])
    if fault == "torn_tail":
        assert report.truncated_bytes > 0 and len(report.torn) == 1
    else:
        # Nothing was cut from the segment appends continue in.
        assert report.truncated_bytes == 0
    fingerprint = first.state_fingerprint()
    first.close()

    second, again = recover_serving_state(tmp_path, config=config)
    assert again.last_seq == second.last_seq == expected
    assert second.state_fingerprint() == fingerprint
    for event in events[expected:]:
        second.apply(event)
    assert second.last_seq == N_EVENTS
    assert second.state_fingerprint() == _twin(events)
    second.close()

    third, _ = recover_serving_state(tmp_path, config=config)
    assert third.last_seq == N_EVENTS
    assert third.state_fingerprint() == _twin(events)
    third.close()


# -- the stream supervisor -----------------------------------------------------

N_ROWS = 40


def _fake_fit(task):
    src, dst, _arr = task
    return dataclasses.replace(make_synthetic_model(0), src=src, dst=dst)


def _supervisor(tmp_path, live):
    obs = Observability.create(trace=False)
    store, _ = read_jsonl(live, strict=False)
    controller = RetrainController(
        FallbackChain.from_log(store), obs.drift,
        policy=RetrainPolicy(min_samples=12, min_fit_rows=4,
                             buffer_rows=64, cooldown_s=1e9),
        fit_fn=_fake_fit, registry=obs.registry)
    return StreamSupervisor(
        TailIngester(live, registry=obs.registry),
        controller, tmp_path / "state", obs=obs,
        config=StreamConfig(poll_interval_s=0.0, max_apply_per_cycle=2,
                            checkpoint_every=1),
        sleep=lambda _s: None)


def _state(sup) -> tuple:
    return (sup._seq, sup.applied_records, sup.applied_digest,
            sup.tail.offset)


@pytest.mark.parametrize("fault", FAULTS)
def test_stream_recovers_the_longest_prefix(tmp_path, fault):
    live = tmp_path / "live.jsonl"
    write_jsonl(make_random_store(n=N_ROWS, n_endpoints=4, seed=6), live)
    kept, _ = read_jsonl(live, strict=False)
    first = _supervisor(tmp_path, live)
    committed = {}      # seq -> the state that record committed
    checkpoint = first.checkpoint

    def capture():
        generation = checkpoint()
        committed[first._seq] = _state(first)
        return generation

    first.checkpoint = capture
    for _ in range(60):
        first.cycle()
        if first.obs.registry.flat().get("stream_snapshots_total", 0) \
                >= 3 and first.status()["journal_records"]:
            break
    assert first.applied_records < N_ROWS
    first.segments.close()
    expected = _injure(tmp_path / "state" / "checkpoints", fault)

    second = _supervisor(tmp_path, live)
    assert _state(second) == committed[expected]
    second.segments.close()
    third = _supervisor(tmp_path, live)
    assert _state(third) == committed[expected]
    third.run(max_cycles=60)
    assert third.applied_records == N_ROWS
    assert third.applied_digest == fold_digest("", kept.raw())
