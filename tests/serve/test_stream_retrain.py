"""Circuit breaker transitions and the drift-triggered retrain path."""

import dataclasses
import json
import time

import numpy as np
import pytest

from repro.logs.io import read_jsonl, write_jsonl
from repro.logs.schema import LOG_DTYPE
from repro.ml.persistence import model_to_dict
from repro.obs import DriftMonitor, Observability
from repro.serve.fallback import FallbackChain, ModelTier
from repro.serve.fixtures import make_synthetic_model
from repro.serve.stream import (
    BreakerState,
    CircuitBreaker,
    RetrainController,
    RetrainPolicy,
    SimulatedCrash,
    StreamConfig,
    StreamSupervisor,
    TailIngester,
    retrain,
)
from repro.serve.stream.supervisor import load_checkpoint
from tests.core.conftest import make_random_store

EDGE = ("EP0", "EP1")


def _rows(src, dst, n, seed=0):
    rng = np.random.default_rng(seed)
    arr = np.zeros(n, dtype=LOG_DTYPE)
    arr["transfer_id"] = np.arange(n)
    arr["src"] = src
    arr["dst"] = dst
    arr["src_site"] = "site-a"
    arr["dst_site"] = "site-b"
    arr["src_type"] = "dtn"
    arr["dst_type"] = "dtn"
    arr["ts"] = rng.uniform(0, 100, n)
    arr["te"] = arr["ts"] + rng.uniform(1, 10, n)
    arr["nb"] = rng.uniform(1e8, 1e9, n)
    arr["nf"] = 10
    arr["nd"] = 2
    arr["c"] = 2
    arr["p"] = 4
    arr["distance_km"] = 1000.0
    return arr


def _fake_fit(task):
    src, dst, _arr = task
    return dataclasses.replace(make_synthetic_model(0), src=src, dst=dst)


def _row_seeded_fit(task):
    # A different model for every buffer size, so generations differ.
    src, dst, arr = task
    return dataclasses.replace(make_synthetic_model(len(arr)),
                               src=src, dst=dst)


def _fail_fit(task):
    raise RuntimeError("poisoned fit")


def _slow_fit(task):
    time.sleep(5.0)
    return _fake_fit(task)


def _policy(**overrides):
    base = dict(
        mdape_threshold=25.0, p95_threshold=75.0, min_samples=4,
        hysteresis=0.5, cooldown_s=10.0, fit_timeout_s=30.0,
        breaker_failures=2, breaker_cooldown_s=100.0, workers=1,
        buffer_rows=64, min_fit_rows=4, probe_rows=4,
    )
    base.update(overrides)
    return RetrainPolicy(**base)


def _controller(obs, fit_fn=_fake_fit, drift=None, **policy_overrides):
    chain = FallbackChain.from_log(make_random_store(n=60, seed=7))
    return RetrainController(
        chain, drift or obs.drift,
        policy=_policy(**policy_overrides), fit_fn=fit_fn,
        registry=obs.registry, seed=0,
    )


def _breach(drift, edge=EDGE, n=8, ape=4.0):
    # predicted = realized * (1 + ape): APE = 100 * ape / (1 + ape)... just
    # make the relative error large and stable.
    for _ in range(n):
        drift.record(edge[0], edge[1], ModelTier.EDGE,
                     predicted_rate=1e6 * (1 + ape), realized_rate=1e6)


def _score(ctl, drift, n, ape=4.0, edge=EDGE):
    # n rows the serving generation scored: drift samples plus the
    # scored mask the supervisor hands the controller.
    _breach(drift, edge=edge, n=n, ape=ape)
    ctl.observe(_rows(*edge, n), scored=np.ones(n, dtype=bool))


@pytest.fixture
def obs():
    return Observability.create(trace=False)


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        b = CircuitBreaker(failure_threshold=3, cooldown_s=50.0)
        for _ in range(2):
            b.record_failure(10.0)
        assert b.state is BreakerState.CLOSED
        b.record_failure(10.0)
        assert b.state is BreakerState.OPEN
        assert b.opens == 1
        assert not b.allow(20.0)                # inside cooldown

    def test_success_resets_the_run(self):
        b = CircuitBreaker(failure_threshold=3)
        b.record_failure(0.0)
        b.record_failure(0.0)
        b.record_success(0.0)
        b.record_failure(0.0)
        assert b.state is BreakerState.CLOSED
        assert b.failures == 1

    def test_half_open_admits_exactly_one_probe(self):
        b = CircuitBreaker(failure_threshold=1, cooldown_s=50.0)
        b.record_failure(0.0)
        assert b.state is BreakerState.OPEN
        assert b.allow(60.0)                    # cooldown elapsed: probe
        assert b.state is BreakerState.HALF_OPEN
        assert not b.allow(60.0)                # second probe refused
        b.record_success(61.0)
        assert b.state is BreakerState.CLOSED

    def test_half_open_failure_reopens(self):
        b = CircuitBreaker(failure_threshold=3, cooldown_s=50.0)
        for _ in range(3):
            b.record_failure(0.0)
        assert b.allow(60.0)
        b.record_failure(61.0)                  # single probe failure
        assert b.state is BreakerState.OPEN
        assert b.opens == 2
        assert b.opened_at == 61.0

    def test_state_round_trip(self):
        b = CircuitBreaker(failure_threshold=2, cooldown_s=9.0)
        b.record_failure(1.0)
        b.record_failure(2.0)
        c = CircuitBreaker(failure_threshold=2, cooldown_s=9.0)
        c.load_state(b.state_dict())
        assert c.state is BreakerState.OPEN
        assert c.failures == 2
        assert c.opened_at == 2.0
        assert c.opens == 1


class TestScheduling:
    def test_due_needs_breach_with_samples(self, obs):
        ctl = _controller(obs)
        ctl.observe(_rows(*EDGE, 10))
        assert ctl.due(0.0) == []               # no drift yet
        _breach(obs.drift, n=2)
        assert ctl.due(0.0) == []               # too few samples
        _breach(obs.drift, n=6)
        assert ctl.due(0.0) == [EDGE]

    def test_hysteresis_latch_holds_until_released(self, obs):
        ctl = _controller(obs)
        ctl.observe(_rows(*EDGE, 10))
        _breach(obs.drift, n=8, ape=4.0)
        assert ctl.due(0.0) == [EDGE]
        # Drift drops just below threshold but above the release line:
        # the latch holds.
        for _ in range(60):
            obs.drift.record(*EDGE, ModelTier.EDGE, 1.20e6, 1e6)
        stats = obs.drift.edge_stats(*EDGE)
        assert stats.mdape < 25.0
        assert ctl.due(0.0) == [EDGE]
        # Well below threshold * hysteresis: released.
        for _ in range(250):
            obs.drift.record(*EDGE, ModelTier.EDGE, 1.01e6, 1e6)
        assert ctl.due(0.0) == []

    def test_cooldown_spaces_attempts(self, obs):
        ctl = _controller(obs)
        ctl.observe(_rows(*EDGE, 10))
        _breach(obs.drift)
        assert ctl.refit_due(100.0) == {EDGE: "ok"}
        # min_samples fresh samples from the new generation, still
        # breached but better than the trigger (a win, no backoff).
        _score(ctl, obs.drift, 4, ape=2.0)
        assert ctl.due(105.0) == []             # inside cooldown
        assert ctl.due(111.0) == [EDGE]         # past it, on fresh evidence


class TestEvidenceGate:
    def test_no_refit_without_fresh_evidence(self, obs):
        ctl = _controller(obs)
        ctl.observe(_rows(*EDGE, 10))
        _breach(obs.drift)
        assert ctl.refit_due(0.0) == {EDGE: "ok"}
        assert ctl._breached[EDGE]              # the latch is still set
        assert ctl.due(1e9) == []               # ...but nothing is new
        ctl.observe(_rows(*EDGE, 10, seed=1))   # rows, but none scored
        assert ctl.due(1e9) == []
        _score(ctl, obs.drift, 3, ape=2.0)
        assert ctl.due(1e9) == []               # 3 < min_samples
        _score(ctl, obs.drift, 1, ape=2.0)
        assert ctl.due(1e9) == [EDGE]

    def test_failed_attempt_keeps_its_evidence(self, obs):
        """A failure leaves the serving generation in place, so its
        samples still count: the edge is retried past the cooldown with
        no new sample, and the breaker opens on consecutive failures."""
        ctl = _controller(obs, fit_fn=_fail_fit)
        ctl.observe(_rows(*EDGE, 10))
        _score(ctl, obs.drift, 8)
        assert ctl.refit_due(0.0) == {EDGE: "failed"}
        assert ctl.due(5.0) == []               # inside cooldown
        assert ctl.evidence(EDGE).n == 8        # nothing was discarded
        assert ctl.refit_due(11.0) == {EDGE: "failed"}
        assert ctl.breaker(EDGE).state is BreakerState.OPEN
        assert ctl.due(50.0) == []              # the breaker, not evidence

    def test_skipped_attempt_restarts_the_window(self, obs):
        ctl = _controller(obs, min_fit_rows=16)
        _score(ctl, obs.drift, 8)               # 8 rows < min_fit_rows
        assert ctl.refit_due(0.0) == {EDGE: "skipped"}
        assert ctl.evidence(EDGE).n == 0
        assert ctl.due(1e9) == []

    def test_latch_judged_on_post_publish_samples_only(self, obs):
        ctl = _controller(obs)
        ctl.observe(_rows(*EDGE, 10))
        _breach(obs.drift, n=8)
        assert ctl.refit_due(0.0) == {EDGE: "ok"}
        _score(ctl, obs.drift, 4, ape=0.01)     # the new model is good
        # The whole window still holds the replaced model's errors...
        assert obs.drift.edge_stats(*EDGE).mdape > 25.0
        # ...but only the serving generation's samples judge the latch.
        assert ctl.evidence(EDGE).n == 4
        assert ctl.due(1e9) == []
        assert ctl._breached[EDGE] is False

    def test_losing_edge_backs_off_to_the_cap_and_a_win_resets(
            self, obs):
        drift = DriftMonitor(registry=obs.registry, window=32)
        ctl = _controller(obs, drift=drift)
        ctl.observe(_rows(*EDGE, 10))
        _breach(drift, n=8)                     # trigger MdAPE 400%
        now = 0.0
        assert ctl.refit_due(now) == {EDGE: "ok"}
        required = []
        for _ in range(5):
            now += 100.0                        # cooldowns never bind
            # The new generation is no better than its trigger: a loss.
            _score(ctl, drift, ctl.required(EDGE), ape=4.0)
            due = ctl.due(now)
            required.append(ctl.required(EDGE))
            for _ in range(64):
                if due:
                    break
                _score(ctl, drift, 1, ape=4.0)
                due = ctl.due(now)
            assert ctl.evidence(EDGE).n == ctl.required(EDGE)
            assert ctl.refit_due(now) == {EDGE: "ok"}
        assert required == [8, 16, 32, 32, 32]  # min_samples * 2**losses
        assert obs.registry.flat()["stream_refit_losses_total"] == 5.0
        # Still breached, but better than the trigger: a win resets.
        _score(ctl, drift, ctl.required(EDGE), ape=1.0)
        assert ctl.due(now + 100.0) == [EDGE]
        assert ctl.required(EDGE) == 4

    def test_released_latch_resets_the_backoff(self, obs):
        ctl = _controller(obs)
        ctl.observe(_rows(*EDGE, 10))
        _breach(obs.drift)
        assert ctl.refit_due(0.0) == {EDGE: "ok"}
        _score(ctl, obs.drift, 4, ape=4.0)
        assert ctl.due(1e9) == [] and ctl.required(EDGE) == 8
        # Enough good samples to push the 4 bad ones past the p95 too.
        _score(ctl, obs.drift, 96, ape=0.01)
        assert ctl.due(1e9) == []
        assert ctl._breached[EDGE] is False
        assert ctl.required(EDGE) == 4

    def test_evidence_state_round_trips(self, obs):
        ctl = _controller(obs)
        ctl.observe(_rows(*EDGE, 10))
        _breach(obs.drift)
        assert ctl.refit_due(0.0) == {EDGE: "ok"}
        _score(ctl, obs.drift, 4, ape=4.0)      # a loss: required 8
        assert ctl.due(1e9) == []
        assert ctl.refit_due(1e9) == {}
        _score(ctl, obs.drift, 5, ape=4.0)      # 9 fresh: due again
        assert ctl.refit_due(1e9) == {EDGE: "ok"}  # trigger pending
        _score(ctl, obs.drift, 3, ape=4.0)
        state = json.loads(json.dumps(ctl.state_dict(), allow_nan=False))
        assert state["fresh"] == [[*EDGE, 3]]
        assert state["losses"] == [[*EDGE, 1]]
        assert state["trigger"] == [[*EDGE, 400.0]]

        fresh = _controller(obs)
        fresh.load_state(state)
        assert fresh.state_dict() == ctl.state_dict()
        # Both see the same rows: a second loss (required 16), then due.
        for extra, want in ((5, []), (8, [EDGE])):
            _breach(obs.drift, n=extra)
            for c in (ctl, fresh):
                c.observe(_rows(*EDGE, extra),
                          scored=np.ones(extra, dtype=bool))
            assert fresh.due(2e9) == ctl.due(2e9) == want
            assert fresh.required(EDGE) == ctl.required(EDGE) == 16
        assert fresh.state_dict() == ctl.state_dict()

    def test_pre_evidence_checkpoint_loads(self, obs):
        ctl = _controller(obs)
        ctl.observe(_rows(*EDGE, 10))
        _breach(obs.drift)
        assert ctl.refit_due(0.0) == {EDGE: "ok"}
        # The checkpoint layout from before the evidence gate.
        state = {k: v for k, v in ctl.state_dict().items()
                 if k not in ("fresh", "trigger", "losses", "generations")}
        assert sorted(state) == ["breached", "breakers", "buffers",
                                 "last_attempt", "published"]

        old = _controller(obs)
        old.load_state(state)
        assert old._published == ctl._published
        assert old.required(EDGE) == 4          # no backoff
        assert old.due(1e9) == []               # no fresh evidence yet
        _score(old, obs.drift, 4, ape=2.0)
        assert old.due(1e9) == [EDGE]


class TestRetrain:
    def test_success_publishes_and_splices(self, obs):
        ctl = _controller(obs)
        ctl.observe(_rows(*EDGE, 10))
        _breach(obs.drift)
        before = ctl.chain.edge_models.get(EDGE)
        assert ctl.retrain([EDGE], 0.0) == {EDGE: "ok"}
        spliced = ctl.chain.edge_models[EDGE]
        assert spliced is not before
        assert spliced.src == EDGE[0] and spliced.dst == EDGE[1]
        assert spliced.model is not None
        assert ctl.breaker(EDGE).state is BreakerState.CLOSED
        flat = obs.registry.flat()
        assert flat['stream_refits_total{status="ok"}'] == 1.0

    def test_insufficient_rows_skips_without_breaker_harm(self, obs):
        ctl = _controller(obs)
        ctl.observe(_rows(*EDGE, 2))            # < min_fit_rows
        assert ctl.retrain([EDGE], 0.0) == {EDGE: "skipped"}
        assert ctl.breaker(EDGE).failures == 0

    def test_failures_open_the_breaker_and_block(self, obs):
        ctl = _controller(obs, fit_fn=_fail_fit)
        ctl.observe(_rows(*EDGE, 10))
        _breach(obs.drift)
        assert ctl.retrain([EDGE], 0.0) == {EDGE: "failed"}
        assert ctl.retrain([EDGE], 1.0) == {EDGE: "failed"}
        breaker = ctl.breaker(EDGE)
        assert breaker.state is BreakerState.OPEN
        assert ctl.due(50.0) == []              # breaker excludes it
        assert ctl.retrain([EDGE], 50.0) == {EDGE: "blocked"}
        flat = obs.registry.flat()
        assert flat["stream_breaker_opens_total"] == 1.0
        assert flat["stream_breaker_blocked_total"] == 1.0
        # Serving is untouched: the chain still resolves the edge through
        # a fallback tier.
        assert ctl.chain.resolve(*EDGE) is not ModelTier.EDGE

    def test_timeout_counts_as_breaker_failure(self, obs):
        ctl = _controller(obs, fit_fn=_slow_fit,
                          fit_timeout_s=0.2, breaker_failures=1)
        ctl.observe(_rows(*EDGE, 10))
        assert ctl.retrain([EDGE], 0.0) == {EDGE: "timeout"}
        assert ctl.breaker(EDGE).state is BreakerState.OPEN
        flat = obs.registry.flat()
        assert flat['stream_refits_total{status="timeout"}'] == 1.0

    def test_corrupt_artifact_never_unseats_live_model(self, obs,
                                                       monkeypatch):
        # Rot the encoded model between encode and gate: its checksum
        # no longer matches, so the gate refuses the publish.
        encode = retrain._result_to_bundle
        seen = {"n": 0}

        def corrupt(*args):
            bundle = encode(*args)
            bundle["model"]["coef"][0] += 1.0
            seen["n"] += 1
            return bundle

        monkeypatch.setattr(retrain, "_result_to_bundle", corrupt)
        ctl = _controller(obs)
        original = dataclasses.replace(make_synthetic_model(1),
                                       src=EDGE[0], dst=EDGE[1])
        ctl.chain.edge_models[EDGE] = original
        ctl.observe(_rows(*EDGE, 10))
        assert ctl.retrain([EDGE], 0.0) == {EDGE: "failed"}
        assert seen["n"] == 1
        assert ctl.chain.edge_models[EDGE] is original
        assert EDGE not in ctl._published
        assert obs.registry.flat()["durability_rollback_total"] == 1.0


class TestDurability:
    def test_state_round_trip_resplices_published_model(self, obs):
        ctl = _controller(obs)
        ctl.observe(_rows(*EDGE, 10))
        _breach(obs.drift)
        assert ctl.retrain([EDGE], 0.0) == {EDGE: "ok"}
        state = ctl.state_dict()

        fresh = _controller(obs)
        assert EDGE not in fresh.chain.edge_models
        fresh.load_state(state)
        spliced = fresh.chain.edge_models[EDGE]
        assert spliced.src == EDGE[0]
        assert spliced.model is not None
        assert len(fresh._buffers[EDGE]) == 10
        assert fresh.breaker(EDGE).state is BreakerState.CLOSED

    def test_corrupt_artifact_blocks_resplice(self, obs):
        ctl = _controller(obs)
        ctl.observe(_rows(*EDGE, 10))
        assert ctl.retrain([EDGE], 0.0) == {EDGE: "ok"}
        state = json.loads(json.dumps(ctl.state_dict()))
        state["published"][0][3]["model"]["coef"][0] += 1.0

        fresh = _controller(obs)
        fresh.load_state(state)
        assert EDGE not in fresh.chain.edge_models  # gate held
        assert EDGE not in fresh._published
        assert obs.registry.flat()["durability_rollback_total"] == 1.0

    def test_artifact_root_slot_is_ignored(self, tmp_path, obs):
        """The third positional slot still takes a path (the benchmark's
        stream workload passes one) and nothing is ever written there."""
        ctl = RetrainController(
            FallbackChain.from_log(make_random_store(n=60, seed=7)),
            obs.drift, tmp_path / "artifacts", policy=_policy(),
            fit_fn=_fake_fit, registry=obs.registry)
        ctl.observe(_rows(*EDGE, 10))
        assert ctl.retrain([EDGE], 0.0) == {EDGE: "ok"}
        assert not (tmp_path / "artifacts").exists()

    def test_load_state_serves_the_committed_generation(self, obs):
        """A crash between a publish and its checkpoint: the state from
        after generation 1 must restore generation 1, although
        generation 2 was published (never committed) after it."""
        ctl = _controller(obs, fit_fn=_row_seeded_fit)
        ctl.observe(_rows(*EDGE, 10))
        assert ctl.retrain([EDGE], 0.0) == {EDGE: "ok"}
        committed = json.loads(json.dumps(ctl.state_dict(), allow_nan=False))
        ctl.observe(_rows(*EDGE, 10, seed=1))
        assert ctl.retrain([EDGE], 1.0) == {EDGE: "ok"}
        uncommitted = ctl._bundles[EDGE]["model"]

        fresh = _controller(obs, fit_fn=_row_seeded_fit)
        fresh.load_state(committed)
        [[_, _, generation, bundle]] = committed["published"]
        assert generation == 1
        assert fresh._published == {EDGE: 1}
        served = model_to_dict(fresh.chain.edge_models[EDGE].model)
        assert served == bundle["model"] != uncommitted
        assert "durability_rollback_total" not in obs.registry.flat()
        # The counter carries on from the committed state, not from 2.
        fresh.observe(_rows(*EDGE, 10, seed=2))
        assert fresh.retrain([EDGE], 2.0) == {EDGE: "ok"}
        assert fresh._published == {EDGE: 2}

    def test_crash_after_a_publish_rebuilds_the_last_record(self, tmp_path):
        """Kill the supervisor at ``retrained`` in a cycle that published
        over an already committed generation: the rebuilt chain serves
        exactly the models of the last journal record."""
        live = tmp_path / "live.jsonl"
        write_jsonl(make_random_store(n=60, n_endpoints=4, seed=11), live)
        crashed = {}

        def build(crash_hook=None):
            obs = Observability.create(trace=False)
            store, _ = read_jsonl(live, strict=False)
            controller = RetrainController(
                FallbackChain.from_log(store), obs.drift,
                policy=_policy(min_samples=3, cooldown_s=0.0),
                fit_fn=_row_seeded_fit, registry=obs.registry)
            return StreamSupervisor(
                TailIngester(live, registry=obs.registry), controller,
                tmp_path / "state", obs=obs,
                config=StreamConfig(poll_interval_s=0.0,
                                    max_apply_per_cycle=3),
                sleep=lambda _s: None, crash_hook=crash_hook)

        def hook(stage):
            published = dict(sup.controller._published)
            if stage == "applied":
                crashed["before"] = published
            elif stage == "retrained" and any(
                    crashed["before"].get(e, g) != g
                    for e, g in published.items()):
                crashed["published"] = published
                raise SimulatedCrash(stage)

        sup = build(hook)
        with pytest.raises(SimulatedCrash):
            sup.run(max_cycles=40)
        # The crash landed on a republish: the record holds an older
        # generation of the same edge than the one the chain served.
        _, payload = load_checkpoint(tmp_path / "state" / "checkpoints")
        committed = {(s, d): (g, b)
                     for s, d, g, b in payload["retrain"]["published"]}
        assert any(e in committed and committed[e][0] < g
                   for e, g in crashed["published"].items())

        rebuilt = build()
        chain = rebuilt.controller.chain.edge_models
        assert rebuilt.controller._published == {
            e: g for e, (g, _) in committed.items()}
        for edge, (_, bundle) in committed.items():
            assert model_to_dict(chain[edge].model) == bundle["model"]
        assert "durability_rollback_total" not in \
            rebuilt.obs.registry.flat()

    def test_bundle_with_nan_significance_is_strict_json(self, obs):
        # Real fits leave NaN holes in significance (eliminated features)
        # and checkpoints are strict JSON (allow_nan=False): the bundle
        # must encode them as null and restore them as NaN.
        from repro.core.pipeline import edge_result_from_payload
        from repro.serve.stream.retrain import _result_to_bundle

        result = make_synthetic_model(seed=0)
        significance = np.asarray(result.significance, dtype=np.float64).copy()
        significance[::2] = np.nan
        result = dataclasses.replace(result, significance=significance)

        bundle = _result_to_bundle(result, 0, 4)
        encoded = json.dumps(bundle, sort_keys=True, allow_nan=False)
        back = edge_result_from_payload(json.loads(encoded))
        np.testing.assert_array_equal(back.significance, significance)
        np.testing.assert_array_equal(back.test_errors, result.test_errors)

    def test_checkpoint_after_real_publish_is_strict_json(self, obs):
        # End-to-end variant: a controller that published a model with NaN
        # significance must produce a state_dict the snapshot checksum
        # (strict JSON) can encode.
        def _nan_fit(task):
            src, dst, _arr = task
            base = make_synthetic_model(0)
            significance = np.asarray(base.significance,
                                      dtype=np.float64).copy()
            significance[:] = np.nan
            return dataclasses.replace(base, src=src, dst=dst,
                                       significance=significance)

        ctl = _controller(obs, fit_fn=_nan_fit)
        ctl.observe(_rows(*EDGE, 10))
        assert ctl.retrain([EDGE], 0.0) == {EDGE: "ok"}
        state = ctl.state_dict()
        json.dumps(state, sort_keys=True, allow_nan=False)  # must not raise

        fresh = _controller(obs, fit_fn=_nan_fit)
        fresh.load_state(json.loads(json.dumps(state, allow_nan=False)))
        assert np.isnan(fresh.chain.edge_models[EDGE].significance).all()
