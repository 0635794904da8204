"""Tests for submission-time (online) feature estimation and prediction.

Feature semantics are pinned on the scalar Eq. 2 oracle
(:class:`tests.oracles.OnlineFeatureEstimator`), which the batch engine is
compared against in ``tests/serve/test_batch_predictor.py``; prediction
runs through :class:`~repro.serve.BatchOnlinePredictor`.
"""

import numpy as np
import pytest

from repro.core import build_feature_matrix, fit_edge_model, select_heavy_edges
from repro.core.online import ActiveTransferView, active_views_from_log
from repro.core.pipeline import GBTSettings
from repro.serve import ActiveSet, BatchOnlinePredictor
from repro.sim.gridftp import TransferRequest
from tests.core.conftest import make_random_store
from tests.oracles import OnlineFeatureEstimator


def _active_views(store, now, **kw):
    return [v for _, v in active_views_from_log(store, now, **kw)]


def _request(src="EP0", dst="EP1", **kw):
    defaults = dict(total_bytes=10e9, n_files=10, n_dirs=1,
                    concurrency=2, parallelism=4)
    defaults.update(kw)
    return TransferRequest(src=src, dst=dst, **defaults)


class TestActiveTransferView:
    def test_streams_and_instances(self):
        v = ActiveTransferView(
            src="A", dst="B", rate=1e8, started_at=0.0,
            concurrency=4, parallelism=8, n_files=2,
        )
        assert v.instances == 2
        assert v.streams == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            ActiveTransferView(src="A", dst="B", rate=-1.0, started_at=0.0)
        with pytest.raises(ValueError):
            ActiveTransferView(
                src="A", dst="B", rate=1.0, started_at=10.0, expected_end=5.0
            )


class TestOnlineFeatureEstimator:
    def test_empty_population_zero_contention(self):
        est = OnlineFeatureEstimator([])
        feats = est.estimate(_request(), now=0.0, assumed_duration_s=100.0)
        for k in ("K_sout", "K_din", "G_src", "S_din"):
            assert feats[k] == 0.0
        assert feats["Nb"] == 10e9

    def test_full_overlap_competitor(self):
        active = [
            ActiveTransferView(
                src="EP0", dst="EP2", rate=2e8, started_at=0.0,
                concurrency=2, parallelism=4, n_files=100,
            )
        ]
        est = OnlineFeatureEstimator(active)
        feats = est.estimate(_request(), now=10.0, assumed_duration_s=50.0)
        # Competitor runs forever (expected_end inf): full overlap.
        assert feats["K_sout"] == pytest.approx(2e8)
        assert feats["S_sout"] == pytest.approx(8.0)
        assert feats["G_src"] == pytest.approx(2.0)
        assert feats["K_din"] == 0.0

    def test_partial_overlap_scales(self):
        active = [
            ActiveTransferView(
                src="EP0", dst="EP2", rate=1e8, started_at=0.0,
                expected_end=60.0,
            )
        ]
        est = OnlineFeatureEstimator(active)
        # Transfer starts at t=50, runs 100s; competitor ends at 60 -> 10%.
        feats = est.estimate(_request(), now=50.0, assumed_duration_s=100.0)
        assert feats["K_sout"] == pytest.approx(1e7)

    def test_incoming_at_destination(self):
        active = [
            ActiveTransferView(src="EP2", dst="EP1", rate=3e8, started_at=0.0)
        ]
        feats = OnlineFeatureEstimator(active).estimate(
            _request(), now=0.0, assumed_duration_s=10.0
        )
        assert feats["K_din"] == pytest.approx(3e8)
        assert feats["G_dst"] == pytest.approx(2.0)  # min(C=2, Nf) = 2 instances

    def test_duration_validation(self):
        with pytest.raises(ValueError):
            OnlineFeatureEstimator([]).estimate(_request(), 0.0, 0.0)

    def test_from_log_window(self):
        store = make_random_store(n=100, seed=0, horizon=1000.0)
        mid = 500.0
        views = _active_views(store, now=mid)
        data = store.raw()
        expected = int(np.sum((data["ts"] <= mid) & (data["te"] > mid)))
        assert len(views) == expected

    def test_long_running_transfer_stays_visible(self):
        """Regression: a transfer started hours ago but still in flight is
        active competition; it must not fall out of the window."""
        from repro.logs import LogStore, TransferLogRecord

        def rec(i, ts, te):
            return TransferLogRecord(
                transfer_id=i, src="A", dst="B", src_site="A", dst_site="B",
                src_type="GCS", dst_type="GCS", ts=ts, te=te, nb=1e12,
                nf=100, nd=1, c=2, p=4, nflt=0, distance_km=100.0,
            )

        now = 10_000.0
        store = LogStore.from_records(
            [
                rec(0, now - 7200.0, now + 600.0),   # 2h old, still running
                rec(1, now - 100.0, now + 100.0),    # recent, running
                rec(2, now - 7200.0, now - 3600.0),  # finished long ago
            ]
        )
        views = _active_views(store, now=now)
        assert len(views) == 2
        assert {v.started_at for v in views} == {now - 7200.0, now - 100.0}
        # The old transfer's load shows up in the feature estimates.
        feats = OnlineFeatureEstimator(views).estimate(
            _request(src="A", dst="C"), now, 100.0
        )
        assert feats["K_sout"] > 1e8

    def test_lookback_is_an_optional_cap(self):
        from repro.logs import LogStore, TransferLogRecord

        def rec(i, ts, te):
            return TransferLogRecord(
                transfer_id=i, src="A", dst="B", src_site="A", dst_site="B",
                src_type="GCS", dst_type="GCS", ts=ts, te=te, nb=1e10,
                nf=10, nd=1, c=2, p=4, nflt=0, distance_km=100.0,
            )

        now = 10_000.0
        store = LogStore.from_records(
            [rec(0, now - 7200.0, now + 600.0), rec(1, now - 100.0, now + 100.0)]
        )
        views = _active_views(store, now=now, lookback_s=3600.0)
        assert [v.started_at for v in views] == [now - 100.0]
        with pytest.raises(ValueError):
            active_views_from_log(store, now=now, lookback_s=0.0)


class TestOnlinePredictor:
    """Single-request prediction through BatchOnlinePredictor.predict."""

    @pytest.fixture(scope="class")
    def fitted(self):
        store = make_random_store(n=600, n_endpoints=3, seed=2, horizon=20_000.0)
        fm = build_feature_matrix(store)
        edges = select_heavy_edges(store, min_samples=50, threshold=0.0)
        src, dst = edges[0]
        res = fit_edge_model(
            fm, src, dst, model="gbt", threshold=0.0, seed=0,
            gbt=GBTSettings(n_estimators=50),
        )
        return res, src, dst

    def test_prediction_positive_and_finite(self, fitted):
        res, src, dst = fitted
        predictor = BatchOnlinePredictor(res, ActiveSet())
        rate = predictor.predict(_request(src=src, dst=dst), 0.0)
        assert np.isfinite(rate) and rate > 0

    def test_fixpoint_converges_same_answer(self, fitted):
        res, src, dst = fitted
        predictor = BatchOnlinePredictor(res, ActiveSet())
        r1 = predictor.predict(_request(src=src, dst=dst), 0.0)
        r2 = predictor.predict(_request(src=src, dst=dst), 0.0)
        assert r1 == r2

    def test_contention_lowers_prediction_with_contention_aware_model(self):
        """Build a model whose ground truth declines with K_sout; the
        online predictor must then rank a busy endpoint below a quiet one."""
        from repro.core.pipeline import EdgeModelResult
        from repro.ml.gbt import GradientBoostingRegressor
        from repro.ml.scaler import StandardScaler
        from repro.core.features import FEATURE_NAMES

        rng = np.random.default_rng(0)
        n = 1500
        X = np.zeros((n, len(FEATURE_NAMES)))
        k_idx = FEATURE_NAMES.index("K_sout")
        nb_idx = FEATURE_NAMES.index("Nb")
        X[:, k_idx] = rng.uniform(0, 1e9, n)
        X[:, nb_idx] = rng.uniform(1e9, 1e11, n)
        y = 5e8 / (1.0 + X[:, k_idx] / 2e8)
        scaler = StandardScaler().fit(X)
        model = GradientBoostingRegressor(
            n_estimators=80, max_depth=3, random_state=0
        ).fit(scaler.transform(X), y)
        res = EdgeModelResult(
            src="EP0", dst="EP1", model_kind="gbt",
            feature_names=FEATURE_NAMES,
            kept=np.ones(len(FEATURE_NAMES), dtype=bool),
            significance=np.zeros(len(FEATURE_NAMES)),
            n_train=n, n_test=0, test_errors=np.array([0.0]),
            mdape=0.0, model=model, scaler=scaler,
        )
        quiet = BatchOnlinePredictor(res, ActiveSet()).predict(_request(), 0.0)
        busy_set = ActiveSet.from_views(
            [
                ActiveTransferView(
                    src="EP0", dst="EP2", rate=4e8, started_at=0.0,
                    concurrency=8, parallelism=4, n_files=1000,
                )
                for _ in range(2)
            ]
        )
        busy = BatchOnlinePredictor(res, busy_set).predict(_request(), 0.0)
        assert busy < quiet

    def test_missing_extra_columns_raise(self, fitted):
        from repro.serve.fixtures import make_synthetic_global_model

        res, src, dst = fitted
        # Per-edge models need nothing extra: should not raise.
        BatchOnlinePredictor(res, ActiveSet()).predict(
            _request(src=src, dst=dst), 0.0
        )
        # A global model needs its endpoint-capability columns.
        global_model = make_synthetic_global_model(0)
        with pytest.raises(KeyError, match="ROmax_src"):
            BatchOnlinePredictor(global_model, ActiveSet())
        rate = BatchOnlinePredictor(
            global_model, ActiveSet(),
            extra_columns={"ROmax_src": 1e9, "RImax_dst": 1e9},
        ).predict(_request(src=src, dst=dst), 0.0)
        assert np.isfinite(rate) and rate > 0
