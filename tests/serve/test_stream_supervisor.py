"""StreamSupervisor: apply/checkpoint/recover semantics and liveness."""

import dataclasses

import pytest

from repro.logs.io import read_jsonl, write_jsonl
from repro.obs import Observability
from repro.serve.fallback import FallbackChain
from repro.serve.fixtures import make_synthetic_model
from repro.serve.stream import (
    RetrainController,
    RetrainPolicy,
    SimulatedCrash,
    StreamConfig,
    StreamSupervisor,
    TailIngester,
    fold_digest,
    read_stream_status,
)
from tests.core.conftest import make_random_store


def _fake_fit(task):
    src, dst, _arr = task
    return dataclasses.replace(make_synthetic_model(0), src=src, dst=dst)


def _build(tmp_path, live, obs=None, crash_hook=None, **config_overrides):
    obs = obs or Observability.create(trace=False)
    store, _ = read_jsonl(live, strict=False)
    config = dict(poll_interval_s=0.0, max_apply_per_cycle=16,
                  checkpoint_every=1)
    config.update(config_overrides)
    controller = RetrainController(
        FallbackChain.from_log(store), obs.drift,
        policy=RetrainPolicy(min_samples=4, min_fit_rows=4, buffer_rows=64,
                             cooldown_s=1e9),
        fit_fn=_fake_fit, registry=obs.registry)
    return StreamSupervisor(
        TailIngester(live, registry=obs.registry),
        controller, tmp_path / "state", obs=obs,
        config=StreamConfig(**config),
        sleep=lambda _s: None, crash_hook=crash_hook)


@pytest.fixture
def live(tmp_path):
    store = make_random_store(n=50, n_endpoints=4, seed=11)
    path = tmp_path / "live.jsonl"
    write_jsonl(store, path)
    return path


def test_applies_every_record_once_with_digest(tmp_path, live):
    supervisor = _build(tmp_path, live)
    supervisor.run(max_cycles=10)
    kept, _ = read_jsonl(live, strict=False)
    assert supervisor.applied_records == len(kept) == 50
    assert supervisor.applied_digest == fold_digest("", kept.raw())
    assert supervisor.cycles >= 4               # bounded apply per cycle
    flat = supervisor.obs.registry.flat()
    assert flat["stream_applied_records_total"] == 50.0
    assert flat["drift_observations_total"] > 0


def test_restart_resumes_from_checkpoint(tmp_path, live):
    first = _build(tmp_path, live)
    first.run(max_cycles=2)                     # partial: 32 of 50 applied
    assert 0 < first.applied_records < 50

    second = _build(tmp_path, live)
    assert second.applied_records == first.applied_records
    second.run(max_cycles=10)
    kept, _ = read_jsonl(live, strict=False)
    assert second.applied_records == 50
    assert second.applied_digest == fold_digest("", kept.raw())
    assert second.obs.registry.flat()["stream_recoveries_total"] == 1.0


def test_crash_before_checkpoint_loses_nothing(tmp_path, live):
    calls = {"n": 0}

    def crash_after_second_apply(stage):
        if stage == "applied":
            calls["n"] += 1
            if calls["n"] == 2:
                raise SimulatedCrash("post-apply, pre-checkpoint")

    victim = _build(tmp_path, live, crash_hook=crash_after_second_apply)
    with pytest.raises(SimulatedCrash):
        victim.run(max_cycles=10)
    # The crashed cycle applied records in memory but never checkpointed.
    survivor = _build(tmp_path, live)
    assert survivor.applied_records < victim.applied_records
    survivor.run(max_cycles=10)
    kept, _ = read_jsonl(live, strict=False)
    assert survivor.applied_records == 50
    assert survivor.applied_digest == fold_digest("", kept.raw())


def test_backlog_sheds_oldest_at_the_cap(tmp_path, live):
    supervisor = _build(tmp_path, live, max_backlog_records=8,
                        max_apply_per_cycle=4)
    supervisor.cycle()
    assert supervisor.shed_records > 0
    flat = supervisor.obs.registry.flat()
    assert flat["stream_shed_records_total"] == supervisor.shed_records
    supervisor.run(max_cycles=20)
    # Shed rows are gone for good; applied + shed covers the file.
    assert supervisor.applied_records + supervisor.shed_records == 50


def test_drain_stop_finishes_backlog(tmp_path, live):
    supervisor = _build(tmp_path, live, max_apply_per_cycle=8)
    supervisor.cycle()                          # backlog filled
    supervisor.request_stop(drain=True)
    supervisor.run()
    assert supervisor.applied_records == 50
    supervisor.request_stop(drain=False)
    assert supervisor.run() == 0                # immediate


def test_status_and_offline_reader_agree(tmp_path, live):
    supervisor = _build(tmp_path, live)
    supervisor.run(max_cycles=10)
    status = supervisor.status()
    assert status["heartbeat_stale"] is False
    offline = read_stream_status(tmp_path / "state")
    assert offline["recovered"] is True
    assert offline["applied_records"] == status["applied_records"] == 50
    assert offline["applied_digest"] == status["applied_digest"]
    assert offline["tail_offset"] == status["tail_offset"]
    # The offline reader folds the journal suffix, so it is as fresh as
    # the live loop, not as stale as its newest snapshot.
    assert offline["event_seq"] == status["event_seq"] > 0
    assert offline["journal_records"] == status["journal_records"]
    assert offline["checkpoint_generation"] == status["checkpoint_generation"]


def _write_with_bad_lines(path, seed, bad):
    write_jsonl(make_random_store(n=50, n_endpoints=4, seed=seed), path)
    lines = path.read_text().splitlines(keepends=True)
    for i in bad:
        lines[i] = "{not json\n"
    path.write_text("".join(lines))


def test_status_counts_durable_quarantine(tmp_path, live):
    """``quarantined_rows`` is the checkpointed count (rows read minus
    rows kept), so it survives a restart and adds up across a reset."""
    _write_with_bad_lines(live, 11, bad=(2, 6))
    first = _build(tmp_path, live)
    first.run(max_cycles=2)
    assert first.status()["quarantined_rows"] == 2

    second = _build(tmp_path, live)             # restart from checkpoint
    assert second.status()["quarantined_rows"] == 2

    _write_with_bad_lines(live, 12, bad=(2, 8))  # replaced under the tail
    second.run(max_cycles=10)
    assert second.tail.resets == 1
    assert second.status()["quarantined_rows"] == 4
    offline = read_stream_status(tmp_path / "state")
    assert offline["tail_rows_total"] - offline["tail_rows_kept"] == 4


def test_offline_reader_folds_records_past_the_snapshot(tmp_path, live):
    supervisor = _build(tmp_path, live, max_apply_per_cycle=4)
    supervisor.cycle()                          # first checkpoint: snapshot
    supervisor.cycle()
    supervisor.cycle()
    status = supervisor.status()
    assert status["journal_records"] == 2
    offline = read_stream_status(tmp_path / "state")
    assert offline["journal_records"] == 2
    for key in ("applied_records", "applied_digest", "backlog_records",
                "cycles", "event_seq"):
        assert offline[key] == status[key], key
    assert offline["applied_records"] == 12


def test_checkpoints_after_the_segment_is_closed(tmp_path, live):
    supervisor = _build(tmp_path, live, max_apply_per_cycle=4)
    supervisor.run(max_cycles=2)                # closes the segment's handle
    supervisor.segments.close()                 # closing twice is harmless
    supervisor.run(max_cycles=2)                # the next append reopens it
    supervisor.segments.close()
    supervisor.checkpoint()
    offline = read_stream_status(tmp_path / "state")
    assert offline["applied_records"] == supervisor.applied_records == 16
    assert offline["applied_digest"] == supervisor.applied_digest


def test_offline_reader_on_empty_dir(tmp_path):
    assert read_stream_status(tmp_path / "nope") == {
        "checkpoint_generation": 0, "recovered": False}


def test_requires_drift_monitor(tmp_path, live):
    full = Observability.create(trace=False)
    obs = dataclasses.replace(full, drift=None)
    with pytest.raises(ValueError, match="drift"):
        _build(tmp_path, live, obs=obs)


def test_fold_digest_golden_over_chunks():
    # Recorded before fold_digest moved to ndarray.tolist(): the chain
    # over a fixed multi-chunk log (a NaN, a huge float, a negative zero
    # and a non-ASCII tag included) must never move.
    import numpy as np

    raw = make_random_store(n=120, n_endpoints=4, seed=5).raw().copy()
    raw["distance_km"][3] = np.nan
    raw["nb"][5] = 1e300
    raw["ts"][6] = -0.0
    raw["tag"][7] = "café"
    digest = ""
    for chunk in np.array_split(raw, 7):
        digest = fold_digest(digest, chunk)
    assert digest == (
        "13b333c941013d7c33173c807f2b19e231ac5c690ce240598eb5fbd09d6b36fe")
    assert fold_digest("", raw) == digest
