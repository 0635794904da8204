"""The sharded serving tier: parity, failover, drain, rebalance, chaos.

Each test wires a small :class:`ShardCluster` against the same
single-process :class:`BatchOnlinePredictor` reference the chaos harness
uses, over the same log-derived five-tier chaos chain, so "correct"
always means *bit-identical to the unsharded code*.
"""

import hashlib
import multiprocessing
import shutil

import numpy as np
import pytest

from repro.obs import Observability
from repro.serve import mutation
from repro.serve.active_set import ActiveSet
from repro.serve.batch import BatchOnlinePredictor
from repro.serve.chaos import (
    ChaosConfig,
    make_chaos_chain,
    make_chaos_log,
    make_chaos_requests,
    make_durable_events,
)
from repro.serve.fallback import ModelTier
from repro.serve.fixtures import make_synthetic_views
from repro.serve.mutation import ServingState
from repro.serve.shard import (
    ClusterConfig,
    ShardChaosConfig,
    ShardCluster,
    ShardState,
    edge_key,
    run_shard_bench,
    run_shard_chaos,
)
from repro.serve.shard.worker import fingerprint_digest

N_ENDPOINTS = 6
# Parity over a batch no model answers would pass vacuously.
MODEL_TIERS = {ModelTier.EDGE, ModelTier.GLOBAL}


def _fixture_data(n_views=60, n_requests=24, seed=0):
    cfg = ChaosConfig(n_endpoints=N_ENDPOINTS, seed=seed)
    log = make_chaos_log(cfg)
    chain = make_chaos_chain(log, cfg)
    views = make_synthetic_views(
        n_views, n_endpoints=N_ENDPOINTS, seed=seed, now=0.0)
    requests = make_chaos_requests(
        np.random.default_rng(seed + 1), n_requests, chain, log)
    tiers = _reference(chain, views).predict_batch_detailed(
        requests, now=0.0).tiers
    assert MODEL_TIERS <= set(tiers), tiers
    return chain, views, requests


def _add_views(cluster, views):
    cluster.apply_mutations(
        [mutation.add(i, v) for i, v in enumerate(views)])


def _reference(chain, views, obs=None):
    obs = obs or Observability.create(trace=False)
    return BatchOnlinePredictor(
        chain, ActiveSet.from_views(views, obs=obs), obs=obs)


@pytest.fixture
def cluster3(tmp_path):
    chain, views, requests = _fixture_data()
    with ShardCluster(chain, tmp_path / "state", shards=3,
                      obs=Observability.create(trace=False)) as cluster:
        _add_views(cluster, views)
        yield cluster, chain, views, requests


class TestParity:
    def test_bit_identical_to_reference(self, cluster3):
        cluster, chain, views, requests = cluster3
        detail = cluster.predict_batch_detailed(requests, now=0.0)
        ref = _reference(chain, views).predict_batch_detailed(
            requests, now=0.0)
        assert np.array_equal(np.asarray(detail.rates),
                              np.asarray(ref.rates))
        assert list(detail.tiers) == list(ref.tiers)
        assert MODEL_TIERS <= set(detail.tiers)
        assert ModelTier.DEGRADED not in detail.tiers

    def test_mutations_visible_on_every_shard(self, cluster3):
        cluster, chain, views, requests = cluster3
        # Complete half the population; the reference twin sees the same
        # stream, so any shard that missed a broadcast diverges.
        reference = _reference(chain, views)
        for tid in range(0, len(views), 2):
            cluster.apply_mutations([mutation.complete(tid)])
            reference.active.complete(tid)
        detail = cluster.predict_batch_detailed(requests, now=0.0)
        ref = reference.predict_batch_detailed(requests, now=0.0)
        assert np.array_equal(np.asarray(detail.rates),
                              np.asarray(ref.rates))

    def test_single_shard_cluster_matches_too(self, tmp_path):
        chain, views, requests = _fixture_data()
        with ShardCluster(chain, tmp_path / "s1", shards=1) as cluster:
            _add_views(cluster, views)
            rates = cluster.predict_batch(requests, now=0.0)
        ref = _reference(chain, views).predict_batch(requests, now=0.0)
        assert np.array_equal(rates, ref)


class TestFailover:
    def test_sigkill_is_survived_bit_exactly(self, cluster3):
        cluster, chain, views, requests = cluster3
        seq_before = cluster.seq
        cluster.kill("shard-1")
        # The router doesn't know yet; the next interaction discovers the
        # corpse, respawns it, and replays the journal tail.
        detail = cluster.predict_batch_detailed(requests, now=0.0)
        ref = _reference(chain, views).predict_batch_detailed(
            requests, now=0.0)
        assert np.array_equal(np.asarray(detail.rates),
                              np.asarray(ref.rates))
        assert ModelTier.DEGRADED not in detail.tiers
        rows = {r["shard"]: r for r in cluster.status()}
        assert rows["shard-1"]["restarts"] == 1
        assert rows["shard-1"]["state"] == "up"
        assert cluster.seq == seq_before

    def test_restarted_shard_fingerprint_matches_reference(self, cluster3):
        cluster, chain, views, requests = cluster3
        twin = ServingState()
        for i, v in enumerate(views):
            twin.apply(mutation.add(i, v))
        cluster.kill("shard-0")
        cluster.restart("shard-0")
        fps = cluster.fingerprints()
        # Full replication: every shard holds the whole population, so
        # all fingerprints agree — with each other and with the twin.
        assert set(fps.values()) == {fingerprint_digest(twin.state_fingerprint())}

    def test_kill_between_mutations_loses_nothing(self, cluster3):
        cluster, chain, views, requests = cluster3
        reference = _reference(chain, views)
        cluster.apply_mutations([mutation.complete(0)])
        reference.active.complete(0)
        cluster.kill("shard-2")
        # The broadcast discovers + replays shard-2.
        cluster.apply_mutations([mutation.complete(1)])
        reference.active.complete(1)
        detail = cluster.predict_batch_detailed(requests, now=0.0)
        ref = reference.predict_batch_detailed(requests, now=0.0)
        assert np.array_equal(np.asarray(detail.rates),
                              np.asarray(ref.rates))
        assert len(set(cluster.fingerprints().values())) == 1

    def test_shard_behind_the_compacted_log_goes_down(self, tmp_path):
        """A worker that restarts with a journal ending before the
        compacted log's base (here its state dir was wiped) cannot be
        caught up: the slot goes DOWN, its spawned worker is reaped, and
        its edges degrade instead of serving an empty state."""
        chain, views, requests = _fixture_data()
        twin = ServingState()
        with ShardCluster(chain, tmp_path / "state", shards=2) as cluster:
            _add_views(cluster, views)
            for i, v in enumerate(views):
                twin.apply(mutation.add(i, v))
            cluster.checkpoint()
            shutil.rmtree(tmp_path / "state" / "shard-1")
            cluster.kill("shard-1")
            cluster.apply_mutations([mutation.complete(0)])
            twin.apply(mutation.complete(0))

            rows = {r["shard"]: r for r in cluster.status()}
            assert rows["shard-1"]["state"] == "down"
            assert rows["shard-1"]["pid"] is None
            assert not [p for p in multiprocessing.active_children()
                        if p.name == "repro-shard-shard-1"]
            assert cluster.fingerprints() == {
                "shard-0": fingerprint_digest(twin.state_fingerprint())}

            detail = cluster.predict_batch_detailed(requests, now=0.0)
            ref = _reference(chain, views)
            ref.active.complete(0)
            expected = ref.predict_batch_detailed(requests, now=0.0)
            down = [i for i, r in enumerate(requests)
                    if cluster.ring.lookup(edge_key(r.src, r.dst))
                    == "shard-1"]
            assert down and len(down) < len(requests)
            for i, r in enumerate(requests):
                if i in down:
                    assert detail.tiers[i] is ModelTier.DEGRADED
                    assert detail.rates[i] == chain.constant_rate(
                        r.src, r.dst)[1]
                else:
                    assert detail.tiers[i] == expected.tiers[i]
                    assert detail.rates[i] == expected.rates[i]


class TestMutationValidation:
    BAD = ["add", 99, {"src": "EP000"}]

    @pytest.mark.parametrize("batch", [[BAD], [mutation.complete(0), BAD]],
                             ids=["bad-alone", "good-then-bad"])
    def test_malformed_batch_is_rejected_before_the_log(self, cluster3,
                                                        batch):
        """A record every worker refuses must not enter the replication
        log: replaying it into each restart would take every shard DOWN."""
        cluster, chain, views, requests = cluster3
        seq = cluster.seq
        with pytest.raises(ValueError, match=f"mutation {len(batch) - 1}"):
            cluster.apply_mutations(batch)
        assert cluster.seq == seq
        for row in cluster.status():
            assert row["state"] == "up" and row["restarts"] == 0
        detail = cluster.predict_batch_detailed(requests, now=0.0)
        assert ModelTier.DEGRADED not in detail.tiers


class TestCrashReplayMenu:
    def test_fault_menu_through_the_shard_tier(self, tmp_path):
        """The crash-replay stream — duplicate adds, unknown completes,
        NaN/inf/negative progress rates, drift — through two shards with a
        worker killed mid-stream, against a single-process twin."""
        cfg = ChaosConfig.quick(seed=11)
        events = make_durable_events(cfg)
        log = make_chaos_log(cfg)
        chain = make_chaos_chain(log, cfg)
        twin = ServingState(lenient=cfg.lenient)
        chunks = [events[i:i + 50] for i in range(0, len(events), 50)]
        with ShardCluster(chain, tmp_path / "state", shards=2) as cluster:
            for k, chunk in enumerate(chunks):
                if k == len(chunks) // 2:
                    cluster.kill("shard-1")
                    cluster.restart("shard-1")
                cluster.apply_mutations(chunk)
                for record in chunk:
                    twin.apply(record)
            want = fingerprint_digest(twin.state_fingerprint())
            assert set(cluster.fingerprints().values()) == {want}
            requests = make_chaos_requests(
                np.random.default_rng(cfg.seed + 9), 32, chain, log)
            now = cfg.horizon_s
            got = cluster.predict_batch_detailed(requests, now)
            ref = BatchOnlinePredictor(
                chain, twin.active).predict_batch_detailed(requests, now)
            rows = {r["shard"]: r for r in cluster.status()}
        assert rows["shard-1"]["restarts"] == 1
        assert np.array_equal(np.asarray(got.rates), np.asarray(ref.rates))
        assert list(got.tiers) == list(ref.tiers)
        assert MODEL_TIERS <= set(got.tiers)
        assert list(got.nonconverged) == list(ref.nonconverged)


class TestDrainAndDegraded:
    def test_drained_shard_answers_degraded_never_errors(self, cluster3):
        cluster, chain, views, requests = cluster3
        cluster.drain("shard-1")
        rows = {r["shard"]: r for r in cluster.status()}
        assert rows["shard-1"]["state"] in ("down", "draining")

        detail = cluster.predict_batch_detailed(requests, now=0.0)
        ref = _reference(chain, views).predict_batch_detailed(
            requests, now=0.0)
        # Every request is answered; shard-1's slice is degraded with
        # explicit provenance, everyone else's is still bit-exact.
        assert len(detail.rates) == len(requests)
        degraded = [i for i, t in enumerate(detail.tiers)
                    if t is ModelTier.DEGRADED]
        assert degraded  # the workload hits all 3 shards
        for i in range(len(requests)):
            if i not in degraded:
                assert detail.rates[i] == ref.rates[i]
                assert detail.tiers[i] == ref.tiers[i]

    def test_drained_shard_comes_back_via_restart(self, cluster3):
        cluster, chain, views, requests = cluster3
        cluster.drain("shard-1")
        cluster.restart("shard-1")
        detail = cluster.predict_batch_detailed(requests, now=0.0)
        assert ModelTier.DEGRADED not in detail.tiers
        rows = {r["shard"]: r for r in cluster.status()}
        assert rows["shard-1"]["state"] == "up"


class TestRebalance:
    def test_snapshot_handoff_preserves_state(self, cluster3):
        cluster, chain, views, requests = cluster3
        before = cluster.fingerprints()["shard-0"]
        info = cluster.rebalance("shard-0")
        assert info["fingerprint"] == before
        assert info["seq"] == cluster.seq
        rows = {r["shard"]: r for r in cluster.status()}
        assert rows["shard-0"]["state"] == "up"
        assert rows["shard-0"]["incarnation"] >= 1
        # The recruit serves bit-exact answers immediately.
        detail = cluster.predict_batch_detailed(requests, now=0.0)
        ref = _reference(chain, views).predict_batch_detailed(
            requests, now=0.0)
        assert np.array_equal(np.asarray(detail.rates),
                              np.asarray(ref.rates))
        assert cluster.fingerprints()["shard-0"] == before

    def test_mutations_after_rebalance_keep_replicating(self, cluster3):
        cluster, chain, views, requests = cluster3
        cluster.rebalance("shard-2")
        cluster.apply_mutations([mutation.complete(3)])
        assert len(set(cluster.fingerprints().values())) == 1


class TestLifecycleAndMetrics:
    def test_status_shape(self, cluster3):
        cluster, *_ = cluster3
        rows = cluster.status()
        assert [r["shard"] for r in rows] == \
            ["shard-0", "shard-1", "shard-2"]
        for row in rows:
            assert row["state"] == "up"
            assert isinstance(row["pid"], int)
            assert row["acked_seq"] == cluster.seq

    def test_checkpoint_reports_generations(self, cluster3):
        cluster, *_ = cluster3
        gens = cluster.checkpoint()
        assert set(gens) == {"shard-0", "shard-1", "shard-2"}
        assert all(g >= 1 for g in gens.values())

    def test_collect_metrics_merges_worker_registries(self, cluster3):
        cluster, chain, views, requests = cluster3
        cluster.predict_batch(requests, now=0.0)
        flat = cluster.collect_metrics().flat()
        routed = {k: v for k, v in flat.items()
                  if k.startswith("shard_requests_total")}
        assert sum(routed.values()) == len(requests)
        assert flat["serve_requests_total"] == len(requests)

    def test_rejects_bad_config(self, tmp_path):
        chain, *_ = _fixture_data()
        with pytest.raises(ValueError):
            ShardCluster(chain, tmp_path, shards=0)
        with pytest.raises(ValueError):
            ClusterConfig(request_timeout_s=0)


class TestChaosConfig:
    VALID = dict(rounds=5, kill_rounds=(1,), drain_round=2,
                 rebalance_round=3, checkpoint_round=3)

    @pytest.mark.parametrize("field", [
        "drain_round", "rebalance_round", "checkpoint_round"])
    @pytest.mark.parametrize("value", [-1, 5, 9])
    def test_scripted_round_outside_the_run_is_rejected(self, field, value):
        """A scripted fault outside 0..rounds-1 would silently never run."""
        with pytest.raises(ValueError, match=f"{field} {value} outside 0..4"):
            ShardChaosConfig(**{**self.VALID, field: value})

    @pytest.mark.parametrize("field", [
        "drain_round", "rebalance_round", "checkpoint_round"])
    def test_unscripted_round_is_allowed(self, field):
        assert getattr(ShardChaosConfig(**{field: None}), field) is None

    def test_kill_round_outside_the_run_is_rejected(self):
        with pytest.raises(ValueError, match="kill round 6 outside 0..5"):
            ShardChaosConfig(kill_rounds=(6,))

    def test_defaults_and_quick_are_valid(self):
        ShardChaosConfig()
        ShardChaosConfig.quick()


class TestChaosAndBench:
    def test_chaos_quick_is_clean(self, tmp_path):
        report = run_shard_chaos(
            ShardChaosConfig.quick(), state_root=tmp_path / "chaos")
        assert report.ok, report.render()
        data = report.as_dict()
        assert data["restarts"] >= 1
        assert list(data) == ["ok", "shards", "rounds", "kills", "restarts",
                              "degraded_answers", "checks"]
        lines = report.render().splitlines()
        assert lines[0].startswith("shard chaos: 2 shards, 4 rounds")
        assert lines[1].split() == ["verdict", "OK"]
        # The whole verdict, pinned: a refactor of the harness must leave
        # every line of it byte-identical.
        assert hashlib.sha256(report.render().encode()).hexdigest() == (
            "e19d475a74bf36163ae803ed76560e72166a8e4034ddd5e01962d6f92aee4220")

    def test_bench_parity_small(self, tmp_path):
        result = run_shard_bench(
            shards=2, n_active=80, n_requests=32, n_endpoints=6,
            seed=0, repeats=1, state_root=tmp_path / "bench")
        assert result.parity_ok, result.render()
        assert result.max_abs_diff == 0.0
        assert result.counts_ok


class TestShardStateEnum:
    def test_states_render_as_lowercase(self):
        assert str(ShardState.UP) == "up"
        assert str(ShardState.DOWN) == "down"
        assert str(ShardState.DRAINING) == "draining"
