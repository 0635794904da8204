"""Stream checkpoints as a snapshot plus a journal suffix.

A supervisor rebuilt from its state directory must equal the live one
at its last durable record, section by section, wherever the live one
died; a state directory written before the journal existed (snapshots
only, no ``wal-*`` segments) must still recover.
"""

import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.logs.io import read_jsonl, write_jsonl
from repro.ml.persistence import model_to_dict
from repro.obs import DriftMonitor, Observability, stream_slos
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

SNAPSHOT_ONLY_STATE = Path(__file__).parent / "data" / "snapshot_only_state"
STAGES = ("polled", "applied", "retrained", "checkpointed")


def _fake_fit(task):
    src, dst, _arr = task
    return dataclasses.replace(make_synthetic_model(0), src=src, dst=dst)


def _build(root, live, store, crash_hook=None, **config):
    obs = Observability.create(
        trace=False, slos=stream_slos(),
        events_path=root / "state" / "events.jsonl")
    obs.drift = DriftMonitor(registry=obs.registry, window=16)
    controller = RetrainController(
        FallbackChain.from_log(store), obs.drift,
        policy=RetrainPolicy(min_samples=3, min_fit_rows=4, buffer_rows=24,
                             cooldown_s=0.0),
        fit_fn=_fake_fit, registry=obs.registry)
    return StreamSupervisor(
        TailIngester(live, registry=obs.registry), controller,
        root / "state", obs=obs,
        config=StreamConfig(poll_interval_s=0.0, **config),
        sleep=lambda _s: None, crash_hook=crash_hook)


def _sections(sup) -> dict:
    """Everything a checkpoint must carry, as canonical JSON values; the
    chain's edge models compare as encoded documents."""
    return json.loads(json.dumps({
        "tail": sup.tail.state_dict(),
        "retrain": sup.controller.state_dict(),
        "models": {f"{src}->{dst}": model_to_dict(result.model)
                   for (src, dst), result
                   in sup.controller.chain.edge_models.items()},
        "drift": sup.drift.dump_state(),
        "backlog": [list(row) for row in sup._backlog],
        "scalars": [sup.applied_records, sup.applied_digest,
                    sup.shed_records, sup.cycles, sup.data_now],
        "events": sup.events.state_dict(),
        "slo": sup.slo.state_dict(),
    }))


def _crash_and_rebuild(root, cycles, crash_stage, apply_cap, every,
                       backlog_cap):
    """Feed a log in chunks for ``cycles`` cycles, die at ``crash_stage``
    of the last one (``None``: just stop), rebuild from disk.  Returns
    (dead supervisor, rebuilt supervisor, sections at the last record)."""
    store = make_random_store(n=60, n_endpoints=4, seed=11)
    full = root / "full.jsonl"
    write_jsonl(store, full)
    lines = full.read_text().splitlines(keepends=True)
    chunks = ["".join(part) for part in np.array_split(lines, 5)]
    live = root / "live.jsonl"
    live.write_text("")
    at = {"cycle": 0}

    def hook(stage):
        if at["cycle"] == cycles - 1 and stage == crash_stage:
            raise SimulatedCrash(stage)

    config = dict(max_apply_per_cycle=apply_cap, checkpoint_every=every,
                  max_backlog_records=backlog_cap)
    sup = _build(root, live, store, hook, **config)
    durable = {"sections": _sections(sup)}
    checkpoint = sup.checkpoint

    def checkpoint_and_capture():
        generation = checkpoint()
        durable["sections"] = _sections(sup)
        return generation

    sup.checkpoint = checkpoint_and_capture
    for i in range(cycles):
        at["cycle"] = i
        if i % 3 == 0 and i // 3 < len(chunks):
            with live.open("a") as fh:
                fh.write(chunks[i // 3])
        try:
            sup.cycle()
        except SimulatedCrash:
            break
    rebuilt = _build(root, live, store, **config)
    return sup, rebuilt, durable["sections"]


def _assert_rebuilt_equals_last_record(rebuilt, want):
    got = _sections(rebuilt)
    # A resumed incarnation emits exactly one event of its own
    # (durability/stream_recovered) on top of the restored seq.
    resumed = rebuilt.obs.registry.flat().get("stream_recoveries_total", 0)
    assert got.pop("events")["seq"] == want["events"]["seq"] + resumed
    for name in want:
        if name != "events":
            assert got[name] == want[name], name


@settings(max_examples=20, deadline=None)
@given(cycles=st.integers(1, 24),
       crash_stage=st.sampled_from(STAGES + (None,)),
       apply_cap=st.integers(2, 7),
       every=st.integers(1, 3),
       backlog_cap=st.sampled_from([6, 4096]))
@example(cycles=24, crash_stage="retrained", apply_cap=3, every=2,
         backlog_cap=4096)
def test_recovered_state_equals_live_state(tmp_path_factory, cycles,
                                           crash_stage, apply_cap, every,
                                           backlog_cap):
    root = tmp_path_factory.mktemp("journal")
    _, rebuilt, want = _crash_and_rebuild(
        root, cycles, crash_stage, apply_cap, every, backlog_cap)
    _assert_rebuilt_equals_last_record(rebuilt, want)


def test_recovery_across_snapshot_rotations(tmp_path):
    dead, rebuilt, want = _crash_and_rebuild(
        tmp_path, cycles=40, crash_stage="applied", apply_cap=1, every=1,
        backlog_cap=4096)
    flat = dead.obs.registry.flat()
    # The case must exercise what it claims: several compactions, refits
    # published through the journal, a backlog left at the crash, and a
    # suffix of records behind the newest snapshot to fold.
    assert flat["stream_snapshots_total"] >= 3
    assert flat['stream_refits_total{status="ok"}'] >= 1
    assert want["backlog"]
    assert rebuilt.status()["journal_records"] >= 1
    assert flat['stream_checkpoint_bytes_total{kind="journal"}'] > 0
    _assert_rebuilt_equals_last_record(rebuilt, want)
    # Segments older than the oldest kept snapshot were pruned.
    oldest = min(rebuilt.checkpoints.generations())
    assert len(rebuilt.checkpoints.generations()) == 3
    assert min(rebuilt.segments.generations()) >= oldest


def test_snapshot_only_state_dir_recovers(tmp_path):
    """``data/snapshot_only_state`` holds the two newest generations a
    supervisor wrote under the snapshot-per-checkpoint format that
    preceded the journal: three cycles of eight rows over the log below,
    with 16 rows still in the backlog."""
    live = tmp_path / "live.jsonl"
    write_jsonl(make_random_store(n=40, n_endpoints=4, seed=6), live)
    kept, _ = read_jsonl(live, strict=False)
    ckpt = tmp_path / "state" / "checkpoints"
    shutil.copytree(SNAPSHOT_ONLY_STATE, ckpt)
    assert not list(ckpt.glob("wal-*"))

    offline = read_stream_status(tmp_path / "state")
    assert offline["applied_records"] == 24
    assert offline["applied_digest"] == fold_digest("", kept.raw()[:24])
    assert offline["journal_records"] == 0

    obs = Observability.create(trace=False)
    controller = RetrainController(
        FallbackChain.from_log(kept), obs.drift,
        policy=RetrainPolicy(min_samples=10**6, min_fit_rows=4,
                             buffer_rows=64),
        registry=obs.registry)
    sup = StreamSupervisor(
        TailIngester(live, registry=obs.registry), controller,
        tmp_path / "state", obs=obs,
        config=StreamConfig(poll_interval_s=0.0, max_apply_per_cycle=8),
        sleep=lambda _s: None)
    assert sup.applied_records == 24
    assert sup.applied_digest == offline["applied_digest"]
    assert sup.status()["backlog_records"] == 16
    sup.run(max_cycles=10)
    assert sup.applied_records == 40
    assert sup.applied_digest == fold_digest("", kept.raw())
    assert list(ckpt.glob("wal-*"))          # and it journals from here on
