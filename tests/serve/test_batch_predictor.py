"""Tests for the vectorized batch prediction engine (repro.serve.batch)."""

import dataclasses

import numpy as np
import pytest

from repro.core.online import ActiveTransferView
from repro.serve import ActiveSet, BatchOnlinePredictor, ModelTier
from repro.serve.bench import run_serve_bench
from repro.serve.chaos import (
    ChaosConfig,
    make_chaos_chain,
    make_chaos_log,
    make_chaos_requests,
    make_durable_events,
)
from repro.serve.fixtures import (
    make_synthetic_model,
    make_synthetic_requests,
    make_synthetic_views,
)
from repro.serve.mutation import ServingState
from repro.sim.gridftp import TransferRequest
from tests.oracles import OnlineFeatureEstimator, scalar_predict


def _looped(result, views, requests, now=0.0):
    """Each request through its own ``predict`` call, on an engine over
    its own copy of the population."""
    single = BatchOnlinePredictor(result, ActiveSet.from_views(views))
    return np.array([single.predict(r, now) for r in requests])


@pytest.fixture(scope="module")
def model():
    return make_synthetic_model(seed=0)


@pytest.fixture(scope="module")
def population():
    return make_synthetic_views(400, n_endpoints=12, seed=3)


class TestBatchFeatureParity:
    def test_matches_scalar_estimator(self, model, population):
        """Bulk feature estimates must equal the reference per-transfer
        Python loop for every request."""
        requests = make_synthetic_requests(60, n_endpoints=12, seed=5)
        durations = np.linspace(10.0, 5000.0, len(requests))
        engine = BatchOnlinePredictor(model, ActiveSet.from_views(population))
        batch = engine.estimate_features(requests, now=0.0, durations=durations)
        scalar = OnlineFeatureEstimator(population)
        for j, req in enumerate(requests):
            ref = scalar.estimate(req, now=0.0, assumed_duration_s=durations[j])
            for name, arr in batch.items():
                assert arr[j] == pytest.approx(ref[name], rel=1e-9, abs=1e-6), (
                    name, j,
                )

    def test_infinite_expected_end(self, model):
        active = ActiveSet.from_views(
            [
                ActiveTransferView(
                    src="EP000", dst="EP001", rate=2e8, started_at=0.0,
                )
            ]
        )
        engine = BatchOnlinePredictor(model, active)
        req = TransferRequest(src="EP000", dst="EP002", total_bytes=1e9)
        feats = engine.estimate_features([req], now=100.0, durations=np.array([50.0]))
        assert feats["K_sout"][0] == pytest.approx(2e8)  # full overlap forever

    def test_idle_endpoints_zero_contention(self, model):
        engine = BatchOnlinePredictor(model, ActiveSet())
        req = TransferRequest(src="EP000", dst="EP001", total_bytes=1e9)
        feats = engine.estimate_features([req], now=0.0, durations=np.array([100.0]))
        for name in ("K_sout", "K_din", "S_sin", "G_dst"):
            assert feats[name][0] == 0.0
        assert feats["Nb"][0] == 1e9


class TestPredictionParity:
    def test_batch_equals_looped_scalar(self, model, population):
        """The acceptance invariant: a request's answer does not depend on
        the batch it arrives in — one batch call equals looping
        single-request ``predict`` calls."""
        requests = make_synthetic_requests(100, n_endpoints=12, seed=6)
        engine = BatchOnlinePredictor(model, ActiveSet.from_views(population))
        batch = engine.predict_batch(requests, now=0.0)
        loop = _looped(model, population, requests)
        assert np.array_equal(batch, loop)

    def test_batch_of_one_matches_scalar(self, model, population):
        """The vectorized fix-point against the scalar per-transfer,
        per-iteration oracle loop."""
        engine = BatchOnlinePredictor(model, ActiveSet.from_views(population))
        for req in make_synthetic_requests(5, n_endpoints=12, seed=7):
            assert engine.predict(req, now=0.0) == pytest.approx(
                scalar_predict(model, population, req, now=0.0), rel=1e-9
            )

    def test_gbt_model_parity(self, population):
        """Same invariant through the nonlinear model's tree traversal,
        which is row-independent, so bit for bit."""
        from repro.core.features import FEATURE_NAMES
        from repro.core.pipeline import EdgeModelResult
        from repro.ml.gbt import GradientBoostingRegressor
        from repro.ml.scaler import StandardScaler

        rng = np.random.default_rng(0)
        n = 800
        X = rng.uniform(0, 1e9, (n, len(FEATURE_NAMES)))
        y = 3e8 - 0.1 * X[:, 0] + rng.normal(0, 1e6, n)
        scaler = StandardScaler().fit(X)
        gbt = GradientBoostingRegressor(
            n_estimators=40, max_depth=3, random_state=0
        ).fit(scaler.transform(X), np.maximum(y, 1e6))
        res = EdgeModelResult(
            src="EP000", dst="EP001", model_kind="gbt",
            feature_names=FEATURE_NAMES,
            kept=np.ones(len(FEATURE_NAMES), dtype=bool),
            significance=np.zeros(len(FEATURE_NAMES)),
            n_train=n, n_test=0, test_errors=np.array([0.0]),
            mdape=0.0, model=gbt, scaler=scaler,
        )
        requests = make_synthetic_requests(40, n_endpoints=12, seed=8)
        batch = BatchOnlinePredictor(
            res, ActiveSet.from_views(population)
        ).predict_batch(requests, now=0.0)
        assert np.array_equal(batch, _looped(res, population, requests))

    def test_population_mutations_change_predictions(self, model):
        active = ActiveSet()
        engine = BatchOnlinePredictor(model, active)
        req = TransferRequest(src="EP000", dst="EP001", total_bytes=5e10)
        quiet = engine.predict(req, now=0.0)
        for i in range(4):
            active.add(
                i,
                ActiveTransferView(
                    src="EP000", dst="EP005", rate=4e8, started_at=0.0,
                    concurrency=8, parallelism=8, n_files=1000,
                ),
            )
        busy = engine.predict(req, now=0.0)
        assert busy < quiet
        for i in range(4):
            active.complete(i)
        assert engine.predict(req, now=0.0) == pytest.approx(quiet)


def _chaos_variants(seed):
    """The quick chaos chain three ways, so that between them every tier
    answers: as built (edge, global, median), without its global model
    (analytical), and without its global median too (default)."""
    cfg = ChaosConfig.quick(seed=seed)
    log = make_chaos_log(cfg)
    full = make_chaos_chain(log, cfg)
    no_global = make_chaos_chain(
        log, dataclasses.replace(cfg, use_global_model=False))
    no_median = dataclasses.replace(no_global, global_median=None)
    return cfg, log, (full, no_global, no_median)


class TestBatchIndependence:
    """Every kernel is row-independent, so a request's (rate, tier,
    nonconverged) is bit-equal whatever batch it arrives in: any
    permutation, any subset, alone.  The sharded tier's sub-batch parity
    rests on this."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_subsets_and_single_rows_equal_the_full_batch(self, seed):
        cfg, log, chains = _chaos_variants(seed)
        events = make_durable_events(cfg)
        state = ServingState(lenient=cfg.lenient)
        for record in events[: len(events) // 2]:
            state.apply(record)
        now = cfg.horizon_s / 2
        rng = np.random.default_rng(seed)
        seen = set()
        for chain in chains:
            requests = make_chaos_requests(rng, 256, chain, log)
            engine = BatchOnlinePredictor(chain, state.active)
            full = engine.predict_batch_detailed(requests, now)
            seen.update(full.tiers)

            def check(idx):
                got = engine.predict_batch_detailed(
                    [requests[i] for i in idx], now)
                assert np.array_equal(got.rates, full.rates[idx]), idx
                assert list(got.tiers) == [full.tiers[i] for i in idx]
                assert np.array_equal(got.nonconverged,
                                      full.nonconverged[idx])

            check(rng.permutation(len(requests)))
            for size in (1, 7, 64, 200):
                check(np.sort(rng.choice(len(requests), size, replace=False)))
            for i in range(len(requests)):
                check(np.array([i]))
        assert seen >= {ModelTier.EDGE, ModelTier.GLOBAL,
                        ModelTier.ANALYTICAL, ModelTier.MEDIAN,
                        ModelTier.DEFAULT}


class TestValidationAndStats:
    def test_missing_extra_columns_raise(self, model, population):
        import dataclasses

        fake = dataclasses.replace(
            model, feature_names=model.feature_names + ("ROmax_src",),
            kept=np.ones(len(model.feature_names) + 1, dtype=bool),
        )
        with pytest.raises(KeyError):
            BatchOnlinePredictor(fake, ActiveSet.from_views(population))

    def test_empty_batch(self, model):
        engine = BatchOnlinePredictor(model, ActiveSet())
        assert engine.predict_batch([], now=0.0).shape == (0,)

    def test_bad_controls(self, model):
        with pytest.raises(ValueError):
            BatchOnlinePredictor(model, ActiveSet(), max_iterations=0)
        with pytest.raises(ValueError):
            BatchOnlinePredictor(model, ActiveSet(), tolerance=0.0)

    def test_stats_populated(self, model, population):
        engine = BatchOnlinePredictor(model, ActiveSet.from_views(population))
        requests = make_synthetic_requests(25, n_endpoints=12, seed=9)
        engine.predict_batch(requests, now=0.0)
        s = engine.stats
        assert s.predict_calls == 1 and s.requests == 25
        assert s.fixpoint_iterations >= 1
        assert s.feature_rows >= 25
        assert s.total_time_s > 0.0
        assert s.feature_time_s >= 0.0 and s.model_time_s >= 0.0
        assert s.mean_feature_rows_per_request >= 1.0
        engine.stats.reset()
        assert engine.stats.requests == 0 and engine.stats.total_time_s == 0.0

    def test_single_request_predict_updates_stats(self, model, population):
        engine = BatchOnlinePredictor(model, ActiveSet.from_views(population))
        req = make_synthetic_requests(1, n_endpoints=12, seed=10)[0]
        engine.predict(req, now=0.0)
        assert engine.stats.predict_calls == 1
        assert engine.stats.requests == 1


class TestPredictorStatsRegistryView:
    """Regression: the per-tier dict handling of reset()/as_dict()."""

    def test_reset_empties_tier_counts(self, model, population):
        from repro.serve import FallbackChain, ModelTier

        chain = FallbackChain(
            edge_models={("EP000", "EP001"): model}, default_rate=1e6
        )
        engine = BatchOnlinePredictor(chain, ActiveSet.from_views(population))
        requests = make_synthetic_requests(10, n_endpoints=12, seed=11)
        engine.predict_batch(requests, now=0.0)
        assert len(engine.stats.tier_counts) > 0
        engine.stats.reset()
        # Cleared view: no keys, equal to the empty dict, falsy.
        assert dict(engine.stats.tier_counts) == {}
        assert engine.stats.tier_counts == {}
        assert not engine.stats.tier_counts
        with pytest.raises(KeyError):
            engine.stats.tier_counts[ModelTier.DEFAULT.value]
        # And the next batch counts from zero, not from stale totals.
        engine.predict_batch(requests, now=0.0)
        assert sum(dict(engine.stats.tier_counts).values()) == 10

    def test_as_dict_has_stable_tier_keys(self, model, population):
        from repro.serve import ModelTier

        engine = BatchOnlinePredictor(model, ActiveSet.from_views(population))
        d = engine.stats.as_dict()
        # Every tier key present even before any prediction (0 default),
        # so the export schema never depends on which tiers fired.
        for tier in ModelTier:
            assert d[f"tier_{tier.value}"] == 0
        engine.predict_batch(
            make_synthetic_requests(5, n_endpoints=12, seed=12), now=0.0
        )
        d = engine.stats.as_dict()
        assert d["tier_edge"] == 5
        assert d["tier_default"] == 0

    def test_counters_flow_into_shared_registry(self, model, population):
        from repro.obs import Observability

        obs = Observability.create()
        engine = BatchOnlinePredictor(
            model, ActiveSet.from_views(population, obs=obs), obs=obs
        )
        requests = make_synthetic_requests(8, n_endpoints=12, seed=13)
        engine.predict_batch(requests, now=0.0)
        flat = obs.registry.flat()
        assert flat["serve_requests_total"] == 8
        assert flat["serve_predict_calls_total"] == 1
        assert flat["serve_predict_batch_latency_seconds_count"] == 1
        assert flat['serve_tier_predictions_total{tier="edge"}'] == 8
        # Tracing spans from the predict path land in the same registry.
        assert flat['trace_spans_total{span="serve.predict_batch"}'] == 1

    def test_stats_attributes_stay_assignable(self, model):
        engine = BatchOnlinePredictor(model, ActiveSet())
        engine.stats.requests = 5
        engine.stats.requests += 2
        assert engine.stats.requests == 7
        assert isinstance(engine.stats.requests, int)
        engine.stats.total_time_s = 1.5
        assert engine.stats.total_time_s == pytest.approx(1.5)


class TestServeBenchHarness:
    def test_small_run_agrees_and_reports(self):
        result = run_serve_bench(
            n_active=300, n_requests=40, n_endpoints=8, seed=0
        )
        assert result.max_abs_diff == 0.0
        assert result.batch_time_s > 0 and result.loop_time_s > 0
        text = result.render()
        assert "speedup" in text and "engine stats" in text

    def test_latency_percentiles_and_overhead(self):
        import math

        result = run_serve_bench(
            n_active=200, n_requests=30, n_endpoints=8, seed=0, repeats=3
        )
        assert result.repeats == 3
        assert result.instrumented_time_s > 0
        assert math.isfinite(result.overhead_pct)
        # Percentiles come from the latency histogram and are ordered.
        assert 0 < result.latency_p50_s <= result.latency_p95_s \
            <= result.latency_p99_s
        text = result.render()
        assert "batch latency p50/p95/p99" in text
        assert "overhead" in text

    def test_rejects_bad_repeats(self):
        with pytest.raises(ValueError):
            run_serve_bench(n_active=10, n_requests=2, repeats=0)

    @pytest.mark.parametrize("sizes, error", [
        ({"n_active": -5}, "transfer count must be >= 0"),
        ({"n_requests": -1}, "transfer count must be >= 0"),
        ({"n_endpoints": 1}, "at least 2 endpoints"),
        ({"n_requests": 0}, None),
    ])
    def test_synthetic_workload_sizes(self, sizes, error):
        """Malformed sizes fail with a named error, not a numpy one; an
        empty request batch is a valid run with nothing to disagree on."""
        kwargs = {"n_active": 50, "n_requests": 5, "n_endpoints": 6, **sizes}
        if error is None:
            assert run_serve_bench(**kwargs).max_abs_diff == 0.0
        else:
            with pytest.raises(ValueError, match=error):
                run_serve_bench(**kwargs)


def brute_window_sums(views, a, b, weight):
    """Reference: sum of weight(v) * max(0, min(te_v, b) - a) over views."""
    return np.array([
        sum(weight(v) * max(0.0, min(v.expected_end, bj) - a) for v in views)
        for bj in b
    ])


class TestMergedEndpointIndex:
    """An endpoint's 5-column index must answer all five roles."""

    def test_window_sums_match_brute_force_per_role(self, population):
        from repro.serve.active_set import (
            _M_IN_RATE,
            _M_IN_STREAMS,
            _M_OUT_RATE,
            _M_OUT_STREAMS,
            _M_TOUCH,
        )

        active = ActiveSet.from_views(population)
        b = np.array([100.0, 1500.0, 3600.0])
        for endpoint in ("EP000", "EP005", "EP011"):
            sums = active.endpoint_state(endpoint).window_sums(0.0, b)
            out = [v for v in population if v.src == endpoint]
            inc = [v for v in population if v.dst == endpoint]
            touch = [v for v in population if endpoint in (v.src, v.dst)]
            for col, views, weight in (
                (_M_OUT_RATE, out, lambda v: v.rate),
                (_M_OUT_STREAMS, out, lambda v: v.streams),
                (_M_IN_RATE, inc, lambda v: v.rate),
                (_M_IN_STREAMS, inc, lambda v: v.streams),
                (_M_TOUCH, touch, lambda v: v.instances),
            ):
                want = brute_window_sums(views, 0.0, b, weight)
                assert np.allclose(sums[:, col], want, rtol=1e-12), col

    def test_window_sums_matches_overlap_sum(self, population):
        # A later ``now``: transfers that ended before it contribute 0.
        from repro.serve.active_set import _M_OUT_RATE

        active = ActiveSet.from_views(population)
        views = [v for v in population if v.src == "EP003"]
        now = 600.0
        assert any(v.expected_end < now for v in views)
        b = np.array([650.0, 777.0, 5000.0])
        sums = active.endpoint_state("EP003").window_sums(now, b)
        want = brute_window_sums(views, now, b, lambda v: v.rate)
        assert np.allclose(sums[:, _M_OUT_RATE], want, rtol=1e-12)

    def test_window_sums_validation(self, population):
        active = ActiveSet.from_views(population)
        state = active.endpoint_state("EP000")
        with pytest.raises(ValueError):
            state.window_sums(10.0, np.array([5.0]))

    def test_self_loop_counts_both_roles_once(self):
        views = [
            ActiveTransferView(
                src="A", dst="A", rate=100.0, started_at=-10.0,
                expected_end=100.0, concurrency=2, parallelism=2, n_files=8,
            )
        ]
        active = ActiveSet.from_views(views)
        b = np.array([50.0])
        merged = active.endpoint_state("A").window_sums(0.0, b)
        # rate appears in both the outgoing and incoming columns...
        assert merged[0, 0] == pytest.approx(100.0 * 50.0)
        assert merged[0, 2] == pytest.approx(100.0 * 50.0)
        # ...but the instance (G) column counts the transfer once.
        assert merged[0, 4] == pytest.approx(min(2, 8) * 50.0)


class TestForestCountersAndStats:
    def test_forest_counters_attributed_to_gbt_predictions(self, population):
        from repro.core.features import build_feature_matrix
        from repro.core.pipeline import fit_edge_model, select_heavy_edges
        from tests.core.conftest import make_random_store

        store = make_random_store(n=600, n_endpoints=4, seed=0)
        features = build_feature_matrix(store)
        src, dst = select_heavy_edges(store, min_samples=40, threshold=0.0)[0]
        result = fit_edge_model(
            features, src, dst, model="gbt", threshold=0.0, seed=0
        )
        # Fitting computes train/test errors, which already triggers the
        # lazy flatten; drop the snapshot so the serve call rebuilds it and
        # the delta attribution has a build to observe.
        result.model._forest = None
        engine = BatchOnlinePredictor(result, ActiveSet.from_views(population))
        requests = make_synthetic_requests(6, n_endpoints=12, seed=21)
        engine.predict_batch(requests, now=0.0)
        assert engine.stats.forest_builds >= 1
        assert engine.stats.forest_predict_time_s > 0.0
        d = engine.stats.as_dict()
        assert d["forest_builds"] == engine.stats.forest_builds

    def test_linear_model_leaves_forest_counters_zero(self, model, population):
        engine = BatchOnlinePredictor(model, ActiveSet.from_views(population))
        engine.predict_batch(
            make_synthetic_requests(4, n_endpoints=12, seed=22), now=0.0
        )
        assert engine.stats.forest_builds == 0
        assert engine.stats.forest_predict_time_s == 0.0

    def test_mean_feature_rows_alias(self, model, population):
        engine = BatchOnlinePredictor(model, ActiveSet.from_views(population))
        engine.predict_batch(
            make_synthetic_requests(10, n_endpoints=12, seed=23), now=0.0
        )
        stats = engine.stats
        assert stats.mean_feature_rows_per_request >= 1.0
        assert stats.mean_feature_rows_per_request == (
            stats.feature_rows / stats.requests
        )
