"""Circuit breaker transitions and the drift-triggered retrain path."""

import dataclasses
import time

import numpy as np
import pytest

from repro.logs.schema import LOG_DTYPE
from repro.obs import Observability
from repro.serve.fallback import FallbackChain, ModelTier
from repro.serve.fixtures import make_synthetic_model
from repro.serve.stream import (
    BreakerState,
    CircuitBreaker,
    RetrainController,
    RetrainPolicy,
)
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
        buffer_rows=64, min_fit_rows=4, probe_rows=4, keep_artifacts=2,
    )
    base.update(overrides)
    return RetrainPolicy(**base)


def _controller(tmp_path, obs, fit_fn=_fake_fit, **policy_overrides):
    chain = FallbackChain.from_log(make_random_store(n=60, seed=7))
    return RetrainController(
        chain, obs.drift, tmp_path / "artifacts",
        policy=_policy(**policy_overrides), fit_fn=fit_fn,
        registry=obs.registry, seed=0,
    )


def _breach(drift, edge=EDGE, n=8, ape=4.0):
    # predicted = realized * (1 + ape): APE = 100 * ape / (1 + ape)... just
    # make the relative error large and stable.
    for _ in range(n):
        drift.record(edge[0], edge[1], ModelTier.EDGE,
                     predicted_rate=1e6 * (1 + ape), realized_rate=1e6)


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
    def test_due_needs_breach_with_samples(self, tmp_path, obs):
        ctl = _controller(tmp_path, obs)
        ctl.observe(_rows(*EDGE, 10))
        assert ctl.due(0.0) == []               # no drift yet
        _breach(obs.drift, n=2)
        assert ctl.due(0.0) == []               # too few samples
        _breach(obs.drift, n=6)
        assert ctl.due(0.0) == [EDGE]

    def test_hysteresis_latch_holds_until_released(self, tmp_path, obs):
        ctl = _controller(tmp_path, obs)
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

    def test_cooldown_spaces_attempts(self, tmp_path, obs):
        ctl = _controller(tmp_path, obs)
        ctl.observe(_rows(*EDGE, 10))
        _breach(obs.drift)
        assert ctl.refit_due(100.0) == {EDGE: "ok"}
        assert ctl.due(105.0) == []             # inside cooldown
        assert ctl.due(111.0) == [EDGE]         # past it (latch still set)


class TestRetrain:
    def test_success_publishes_and_splices(self, tmp_path, obs):
        ctl = _controller(tmp_path, obs)
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

    def test_insufficient_rows_skips_without_breaker_harm(
            self, tmp_path, obs):
        ctl = _controller(tmp_path, obs)
        ctl.observe(_rows(*EDGE, 2))            # < min_fit_rows
        assert ctl.retrain([EDGE], 0.0) == {EDGE: "skipped"}
        assert ctl.breaker(EDGE).failures == 0

    def test_failures_open_the_breaker_and_block(self, tmp_path, obs):
        ctl = _controller(tmp_path, obs, fit_fn=_fail_fit)
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

    def test_timeout_counts_as_breaker_failure(self, tmp_path, obs):
        ctl = _controller(tmp_path, obs, fit_fn=_slow_fit,
                          fit_timeout_s=0.2, breaker_failures=1)
        ctl.observe(_rows(*EDGE, 10))
        assert ctl.retrain([EDGE], 0.0) == {EDGE: "timeout"}
        assert ctl.breaker(EDGE).state is BreakerState.OPEN
        flat = obs.registry.flat()
        assert flat['stream_refits_total{status="timeout"}'] == 1.0

    def test_corrupt_artifact_never_unseats_live_model(self, tmp_path, obs):
        seen = {"n": 0}

        def corrupt(edge, generation, path):
            seen["n"] += 1
            blob = bytearray(path.read_bytes())
            blob[len(blob) // 2] ^= 0xFF
            path.write_bytes(bytes(blob))

        ctl = _controller(tmp_path, obs)
        ctl.publish_hook = corrupt
        original = dataclasses.replace(make_synthetic_model(1),
                                       src=EDGE[0], dst=EDGE[1])
        ctl.chain.edge_models[EDGE] = original
        ctl.observe(_rows(*EDGE, 10))
        assert ctl.retrain([EDGE], 0.0) == {EDGE: "failed"}
        assert seen["n"] == 1
        assert ctl.chain.edge_models[EDGE] is original
        assert obs.registry.flat()["durability_rollback_total"] >= 1.0


class TestDurability:
    def test_state_round_trip_resplices_published_model(self, tmp_path, obs):
        ctl = _controller(tmp_path, obs)
        ctl.observe(_rows(*EDGE, 10))
        _breach(obs.drift)
        assert ctl.retrain([EDGE], 0.0) == {EDGE: "ok"}
        state = ctl.state_dict()

        fresh = _controller(tmp_path, obs)
        assert EDGE not in fresh.chain.edge_models
        fresh.load_state(state)
        spliced = fresh.chain.edge_models[EDGE]
        assert spliced.src == EDGE[0]
        assert spliced.model is not None
        assert len(fresh._buffers[EDGE]) == 10
        assert fresh.breaker(EDGE).state is BreakerState.CLOSED

    def test_corrupt_artifact_blocks_resplice(self, tmp_path, obs):
        ctl = _controller(tmp_path, obs)
        ctl.observe(_rows(*EDGE, 10))
        assert ctl.retrain([EDGE], 0.0) == {EDGE: "ok"}
        state = ctl.state_dict()
        for artifact in (tmp_path / "artifacts").rglob("model-*.json"):
            artifact.write_text("{corrupt")

        fresh = _controller(tmp_path, obs)
        fresh.load_state(state)
        assert EDGE not in fresh.chain.edge_models  # gate held
        assert EDGE not in fresh._published

    def test_bundle_with_nan_significance_is_strict_json(self, tmp_path, obs):
        # Real fits leave NaN holes in significance (eliminated features)
        # and checkpoints are strict JSON (allow_nan=False): the bundle
        # must encode them as null and restore them as NaN.
        import json

        from repro.serve.stream.retrain import (_bundle_to_result,
                                                _result_to_bundle)

        result = make_synthetic_model(seed=0)
        significance = np.asarray(result.significance, dtype=np.float64).copy()
        significance[::2] = np.nan
        result = dataclasses.replace(result, significance=significance)

        bundle = _result_to_bundle(result)
        encoded = json.dumps(bundle, sort_keys=True, allow_nan=False)
        back = _bundle_to_result(json.loads(encoded), result.model)
        np.testing.assert_array_equal(back.significance, significance)
        np.testing.assert_array_equal(back.test_errors, result.test_errors)

    def test_checkpoint_after_real_publish_is_strict_json(self, tmp_path, obs):
        # End-to-end variant: a controller that published a model with NaN
        # significance must produce a state_dict the snapshot checksum
        # (strict JSON) can encode.
        import json

        def _nan_fit(task):
            src, dst, _arr = task
            base = make_synthetic_model(0)
            significance = np.asarray(base.significance,
                                      dtype=np.float64).copy()
            significance[:] = np.nan
            return dataclasses.replace(base, src=src, dst=dst,
                                       significance=significance)

        ctl = _controller(tmp_path, obs, fit_fn=_nan_fit)
        ctl.observe(_rows(*EDGE, 10))
        assert ctl.retrain([EDGE], 0.0) == {EDGE: "ok"}
        state = ctl.state_dict()
        json.dumps(state, sort_keys=True, allow_nan=False)  # must not raise

        fresh = _controller(tmp_path, obs, fit_fn=_nan_fit)
        fresh.load_state(json.loads(json.dumps(state, allow_nan=False)))
        assert np.isnan(fresh.chain.edge_models[EDGE].significance).all()
