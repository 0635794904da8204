"""Tests for the tiered fallback prediction chain (repro.serve.fallback)."""

import dataclasses

import numpy as np
import pytest

from repro.core.analytical import EndpointMaxima
from repro.core.pipeline import GlobalFeatureAdapter
from repro.serve import (
    ActiveSet,
    BatchOnlinePredictor,
    FallbackChain,
    ModelTier,
)
from repro.serve.chaos import ChaosConfig, make_chaos_chain, make_chaos_log
from repro.serve.fixtures import (
    make_synthetic_global_model,
    make_synthetic_model,
    make_synthetic_views,
)
from repro.sim.gridftp import TransferRequest


@pytest.fixture(scope="module")
def edge_model():
    return make_synthetic_model(seed=0)  # src=EP000 dst=EP001


@pytest.fixture(scope="module")
def population():
    return make_synthetic_views(300, n_endpoints=10, seed=2)


def _req(src, dst, nb=5e10):
    return TransferRequest(src=src, dst=dst, total_bytes=nb, n_files=100)


def _capability_adapter(*eps, cap=2e9):
    maxima = {e: EndpointMaxima(endpoint=e, dr_max=cap, dw_max=cap) for e in eps}
    return GlobalFeatureAdapter.from_endpoint_maxima(maxima), maxima


class TestChainResolution:
    def test_tier_ladder(self, edge_model):
        adapter, maxima = _capability_adapter("EP000", "EP001", "EP002")
        chain = FallbackChain(
            edge_models={("EP000", "EP001"): edge_model},
            global_model=make_synthetic_global_model(0),
            global_adapter=adapter,
            endpoint_maxima=maxima,
            edge_medians={("EP003", "EP004"): 1e8},
            global_median=None,
        )
        assert chain.resolve("EP000", "EP001") is ModelTier.EDGE
        assert chain.resolve("EP001", "EP002") is ModelTier.GLOBAL
        # EP003/EP004 have no capabilities or maxima, but do have an edge
        # median; GHOSTs have nothing at all (global_median is None).
        assert chain.resolve("EP003", "EP004") is ModelTier.MEDIAN
        assert chain.resolve("GHOST-A", "GHOST-B") is ModelTier.DEFAULT

    def test_analytical_between_global_and_median(self, edge_model):
        _, maxima = _capability_adapter("EP000", "EP001")
        chain = FallbackChain(
            endpoint_maxima=maxima,
            edge_medians={("EP000", "EP001"): 1e8},
            global_median=5e7,
        )
        assert chain.resolve("EP000", "EP001") is ModelTier.ANALYTICAL
        tier, rate = chain.constant_rate("EP000", "EP001")
        assert tier is ModelTier.ANALYTICAL and rate == 2e9
        tier, rate = chain.constant_rate("GHOST", "EP001")
        assert tier is ModelTier.MEDIAN and rate == 5e7

    def test_analytical_requires_both_directions(self):
        maxima = {
            "A": EndpointMaxima(endpoint="A", dr_max=1e9, dw_max=0.0),
            "B": EndpointMaxima(endpoint="B", dr_max=0.0, dw_max=2e9),
        }
        chain = FallbackChain(endpoint_maxima=maxima)
        assert chain.analytical_bound("A", "B") == 1e9
        assert chain.analytical_bound("B", "A") is None  # B never read from
        tier, rate = chain.constant_rate("B", "A")
        assert tier is ModelTier.DEFAULT and rate == chain.default_rate

    def test_from_log_derives_medians_and_maxima(self):
        log = make_chaos_log(ChaosConfig.quick())
        chain = FallbackChain.from_log(log)
        assert chain.global_median is not None and chain.global_median > 0
        assert chain.endpoint_maxima and chain.edge_medians
        edge = next(iter(chain.edge_medians))
        rates = log.for_edge(*edge).rates
        assert chain.edge_medians[edge] == pytest.approx(np.median(rates))

    def test_default_rate_validated(self):
        with pytest.raises(ValueError):
            FallbackChain(default_rate=0.0)
        with pytest.raises(ValueError):
            FallbackChain(default_rate=float("nan"))


class TestChainPrediction:
    def test_known_edge_bit_identical_to_single_model(self, edge_model, population):
        """Acceptance: routing through the chain must not change a known
        edge's prediction by a single bit."""
        active = ActiveSet.from_views(population)
        single = BatchOnlinePredictor(edge_model, active)
        chain = FallbackChain.from_log(
            make_chaos_log(ChaosConfig.quick()),
            edge_models={("EP000", "EP001"): edge_model},
        )
        chained = BatchOnlinePredictor(chain, active)
        known = _req("EP000", "EP001")
        unknown = _req("GHOST-X", "GHOST-Y")
        detail = chained.predict_batch_detailed([known, unknown], now=0.0)
        reference = single.predict_batch([known], now=0.0)
        assert detail.rates[0] == reference[0]  # bitwise
        assert detail.tiers[0] is ModelTier.EDGE
        assert detail.tiers[1] is ModelTier.MEDIAN
        assert np.all(np.isfinite(detail.rates)) and np.all(detail.rates > 0)

    def test_edge_model_dict_accepted(self, edge_model, population):
        active = ActiveSet.from_views(population)
        chain = FallbackChain(edge_models={("EP000", "EP001"): edge_model})
        engine = BatchOnlinePredictor(chain, active)
        detail = engine.predict_batch_detailed(
            [_req("EP000", "EP001"), _req("EP005", "EP006")], now=0.0
        )
        assert detail.tiers[0] is ModelTier.EDGE
        assert detail.tiers[1] is ModelTier.DEFAULT  # edge models only
        assert detail.rates[1] == FallbackChain().default_rate

    def test_global_tier_uses_adapter_columns(self, population):
        adapter, _ = _capability_adapter("EP002", "EP003", cap=3e9)
        chain = FallbackChain(
            global_model=make_synthetic_global_model(0),
            global_adapter=adapter,
        )
        engine = BatchOnlinePredictor(chain, ActiveSet.from_views(population))
        detail = engine.predict_batch_detailed([_req("EP002", "EP003")], now=0.0)
        assert detail.tiers == (ModelTier.GLOBAL,)
        assert np.isfinite(detail.rates[0]) and detail.rates[0] > 0
        # Endpoint outside the adapter: global tier must not claim it.
        detail = engine.predict_batch_detailed([_req("EP002", "GHOST")], now=0.0)
        assert detail.tiers == (ModelTier.DEFAULT,)

    def test_unusable_edge_model_falls_through(self, edge_model, population):
        """A partially-configured model (needs extra columns nobody
        provided) must not poison the chain: its edge falls through, and
        ``unusable_edges`` names the missing features."""
        broken = dataclasses.replace(
            edge_model,
            src="EP002",
            dst="EP003",
            feature_names=edge_model.feature_names + ("ROmax_src",),
            kept=np.ones(len(edge_model.feature_names) + 1, dtype=bool),
        )
        chain = FallbackChain(
            edge_models={("EP002", "EP003"): broken},
            global_median=7e7,
        )
        engine = BatchOnlinePredictor(chain, ActiveSet.from_views(population))
        assert ("EP002", "EP003") in engine.unusable_edges
        assert "ROmax_src" in engine.unusable_edges[("EP002", "EP003")]
        detail = engine.predict_batch_detailed([_req("EP002", "EP003")], now=0.0)
        assert detail.tiers == (ModelTier.MEDIAN,)
        assert detail.rates[0] == 7e7

    def test_mixed_batch_tier_counters(self, edge_model, population):
        adapter, maxima = _capability_adapter("EP004", "EP005")
        chain = FallbackChain(
            edge_models={("EP000", "EP001"): edge_model},
            global_model=make_synthetic_global_model(0),
            global_adapter=adapter,
            endpoint_maxima=maxima,
            global_median=5e7,
        )
        engine = BatchOnlinePredictor(chain, ActiveSet.from_views(population))
        requests = [
            _req("EP000", "EP001"),   # edge
            _req("EP000", "EP001"),   # edge
            _req("EP004", "EP005"),   # global
            _req("GHOST", "GHOST-2"), # median (global_median)
        ]
        detail = engine.predict_batch_detailed(requests, now=0.0)
        assert [t.value for t in detail.tiers] == [
            "edge", "edge", "global", "median"
        ]
        assert engine.stats.tier_counts == {"edge": 2, "global": 1, "median": 1}
        d = engine.stats.as_dict()
        assert d["tier_edge"] == 2 and d["tier_median"] == 1
        assert engine.stats.requests == 4 and engine.stats.predict_calls == 1


class TestNonConvergence:
    def test_counted_and_warned(self, edge_model, population):
        active = ActiveSet.from_views(population)
        engine = BatchOnlinePredictor(
            edge_model, active, max_iterations=1, tolerance=1e-12,
        )
        requests = [_req("EP000", "EP001"), _req("EP002", "EP003")]
        detail = engine.predict_batch_detailed(requests, now=0.0)
        assert detail.nonconverged.all()
        assert engine.stats.nonconverged_requests == 2
        assert np.all(np.isfinite(detail.rates))

    def test_converged_batch_reports_zero(self, edge_model, population):
        engine = BatchOnlinePredictor(edge_model, ActiveSet.from_views(population))
        detail = engine.predict_batch_detailed([_req("EP000", "EP001")], now=0.0)
        assert not detail.nonconverged.any()
        assert engine.stats.nonconverged_requests == 0

    def test_stats_reset_clears_new_fields(self, edge_model, population):
        engine = BatchOnlinePredictor(
            edge_model, ActiveSet.from_views(population),
            max_iterations=1, tolerance=1e-12,
        )
        engine.predict_batch([_req("EP000", "EP001")], now=0.0)
        assert engine.stats.tier_counts and engine.stats.nonconverged_requests
        engine.stats.reset()
        assert engine.stats.tier_counts == {}
        assert engine.stats.nonconverged_requests == 0


class TestGlobalFeatureAdapter:
    def test_covers_and_columns(self):
        adapter, _ = _capability_adapter("A", "B", cap=1e9)
        gm = make_synthetic_global_model(0)
        assert adapter.covers(gm, "A", "B")
        assert not adapter.covers(gm, "A", "GHOST")
        cols = adapter.extra_columns(gm, [_req("A", "B"), _req("B", "A")])
        assert set(cols) == {"ROmax_src", "RImax_dst"}
        assert cols["ROmax_src"].tolist() == [1e9, 1e9]

    def test_distance_required_when_model_uses_rtt(self):
        adapter, _ = _capability_adapter("A", "B")
        gm = make_synthetic_global_model(0)
        gm_rtt = dataclasses.replace(
            gm, feature_names=gm.feature_names + ("distance_km",)
        )
        assert not adapter.covers(gm_rtt, "A", "B")  # no distances known
        with_dist = dataclasses.replace(adapter, distances={("A", "B"): 1200.0})
        assert with_dist.covers(gm_rtt, "A", "B")
        assert not with_dist.covers(gm_rtt, "B", "A")
        cols = with_dist.extra_columns(gm_rtt, [_req("A", "B")])
        assert cols["distance_km"].tolist() == [1200.0]
