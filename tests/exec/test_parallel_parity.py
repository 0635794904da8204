"""Determinism parity: workers=N must be bit-identical to workers=1.

These are the acceptance checks for the parallel engine: per-edge model
fits, a full harness experiment, and the cold-vs-warm feature cache must
all produce the same artifacts whether the work ran serially or fanned
out over worker processes.  For the edge fits that holds for the
returned objects, not only for their payload fingerprint.
"""

import os
from concurrent.futures import BrokenExecutor

import numpy as np
import pytest

from repro.core.features import build_feature_matrix
from repro.core.pipeline import (
    GBTSettings,
    edge_results_fingerprint,
    fit_all_edge_models,
    select_heavy_edges,
)
from repro.exec.cache import ArtifactCache
from repro.obs.metrics import MetricsRegistry
from tests.core.conftest import make_random_store
from tests.ml.test_gbt_pickle import assert_same_array, assert_same_gbt


@pytest.fixture(scope="module")
def store():
    return make_random_store(n=1200, n_endpoints=4, seed=3)


@pytest.fixture(scope="module")
def features(store):
    return build_feature_matrix(store)


@pytest.fixture(scope="module")
def edges(store):
    edges = select_heavy_edges(store, min_samples=60, threshold=0.0)
    assert len(edges) >= 8  # the parity runs need a real fan-out
    return edges


class TestFitAllParity:
    def test_linear_workers4_bit_identical_to_serial(self, features, edges):
        serial = fit_all_edge_models(
            features, edges, model="linear", threshold=0.0, seed=3, workers=1
        )
        parallel = fit_all_edge_models(
            features, edges, model="linear", threshold=0.0, seed=3, workers=4
        )
        assert edge_results_fingerprint(serial) == \
            edge_results_fingerprint(parallel)

    def test_gbt_workers4_bit_identical_to_serial(self, features, edges):
        gbt = GBTSettings(n_estimators=30)
        serial = fit_all_edge_models(
            features, edges[:4], model="gbt", threshold=0.0, seed=3,
            gbt=gbt, workers=1,
        )
        parallel = fit_all_edge_models(
            features, edges[:4], model="gbt", threshold=0.0, seed=3,
            gbt=gbt, workers=4,
        )
        assert edge_results_fingerprint(serial) == \
            edge_results_fingerprint(parallel)
        # The objects too, in every attribute, not only their payloads.
        for a, b in zip(serial, parallel, strict=True):
            for name in ("src", "dst", "model_kind", "feature_names",
                         "n_train", "n_test", "mdape"):
                assert getattr(a, name) == getattr(b, name), name
            for name in ("kept", "significance", "test_errors"):
                assert_same_array(getattr(a, name), getattr(b, name))
            # The fit's own eval built the forest; it must come back too.
            assert len(b.model.trees_) == 30
            assert b.model._forest is not None
            assert_same_gbt(a.model, b.model)
            assert a.scaler.ddof == b.scaler.ddof
            assert_same_array(a.scaler.mean_, b.scaler.mean_)
            assert_same_array(a.scaler.scale_, b.scaler.scale_)

    def test_explanation_significance_survives_round_trip(
        self, features, edges
    ):
        serial = fit_all_edge_models(
            features, edges[:3], model="linear", threshold=0.0, seed=3,
            explanation=True, workers=1,
        )
        parallel = fit_all_edge_models(
            features, edges[:3], model="linear", threshold=0.0, seed=3,
            explanation=True, workers=2,
        )
        for a, b in zip(serial, parallel):
            assert np.array_equal(
                a.significance, b.significance, equal_nan=True
            )


def _refuse_pool(*args, **kwargs):
    raise BrokenExecutor("pool refused to start")


class TestCrashRetryReleasesScratch:
    def test_serial_retry_leaves_no_cached_matrix(
        self, features, edges, monkeypatch
    ):
        import repro.exec.engine as engine
        from repro.core import pipeline
        from repro.exec import scratch

        scratch.clear_process_cache()
        pipeline._TASK_MASKS.clear()
        monkeypatch.setattr(engine, "ProcessPoolExecutor", _refuse_pool)
        registry = MetricsRegistry()
        serial = fit_all_edge_models(
            features, edges[:3], model="linear", threshold=0.0, seed=3,
            workers=1,
        )
        for _ in range(3):
            retried = fit_all_edge_models(
                features, edges[:3], model="linear", threshold=0.0, seed=3,
                workers=2, registry=registry,
            )
            assert edge_results_fingerprint(retried) == \
                edge_results_fingerprint(serial)
        # Every task ran in this process, against a scratch directory
        # that is gone now; nothing of it may stay cached or mapped.
        flat = registry.flat()
        assert flat['exec_serial_retries_total{label="fit_edge"}'] == 9.0
        assert scratch._PROCESS_CACHE == {}
        assert pipeline._TASK_MASKS == {}
        if os.path.exists("/proc/self/maps"):
            with open("/proc/self/maps") as maps:
                assert "repro-exec-" not in maps.read()


class TestEdgeModelCacheParity:
    def test_cold_vs_warm_bit_identical_with_hits(
        self, features, edges, tmp_path
    ):
        registry = MetricsRegistry()
        cache = ArtifactCache(tmp_path / "artifacts", registry=registry)
        cold = fit_all_edge_models(
            features, edges, model="linear", threshold=0.0, seed=3,
            workers=1, cache=cache,
        )
        warm = fit_all_edge_models(
            features, edges, model="linear", threshold=0.0, seed=3,
            workers=1, cache=cache,
        )
        assert edge_results_fingerprint(cold) == edge_results_fingerprint(warm)
        flat = registry.flat()
        assert flat['cache_hits_total{kind="edge_model"}'] == len(edges)
        assert flat['cache_misses_total{kind="edge_model"}'] == len(edges)
        assert flat['cache_stores_total{kind="edge_model"}'] == len(edges)

    def test_threshold_change_invalidates(self, features, edges, tmp_path):
        registry = MetricsRegistry()
        cache = ArtifactCache(tmp_path / "artifacts", registry=registry)
        fit_all_edge_models(
            features, edges[:2], model="linear", threshold=0.0, seed=3,
            workers=1, cache=cache,
        )
        fit_all_edge_models(
            features, edges[:2], model="linear", threshold=0.01, seed=3,
            workers=1, cache=cache,
        )
        flat = registry.flat()
        assert flat.get('cache_hits_total{kind="edge_model"}', 0.0) == 0.0
        assert flat['cache_misses_total{kind="edge_model"}'] == 4.0


class TestHarnessExperimentParity:
    def test_figure11_workers4_bit_identical(self, store, monkeypatch):
        from repro.harness.exp_models import run_figure11
        from repro.harness.runners import ProductionStudy, StudyConfig
        from repro.sim.fleet import build_production_fleet

        study = ProductionStudy(
            config=StudyConfig(),
            fabric=build_production_fleet(),
            log=store,
            features=build_feature_matrix(store),
        )
        monkeypatch.setenv("REPRO_WORKERS", "1")
        serial = run_figure11(study, min_samples=60, threshold=0.0, seed=3)
        monkeypatch.setenv("REPRO_WORKERS", "4")
        parallel = run_figure11(study, min_samples=60, threshold=0.0, seed=3)

        assert serial.render() == parallel.render()
        assert serial.rows == parallel.rows
        assert serial.metrics == parallel.metrics
        assert sorted(serial.series) == sorted(parallel.series)
        for name in serial.series:
            assert np.array_equal(
                np.asarray(serial.series[name]),
                np.asarray(parallel.series[name]),
            ), name
