"""Cross-layer invariant: the online estimator agrees with the
retrospective Eq. 2 computation when the future holds no surprises.

If every competitor is already active when a transfer starts and outlives
it, the persistence assumption is exact: the online features must equal
the retrospective ones."""

import numpy as np
import pytest

from repro.core.contention import ContentionComputer
from repro.core.online import ActiveTransferView, active_views_from_log
from repro.logs import LogStore, TransferLogRecord
from repro.sim.gridftp import TransferRequest
from tests.oracles import OnlineFeatureEstimator


def _estimator_at(store, now, exclude_transfer_id):
    return OnlineFeatureEstimator([
        v for _, v in active_views_from_log(
            store, now, exclude_transfer_id=exclude_transfer_id
        )
    ])


def _rec(i, src, dst, ts, te, nb, c=2, p=4, nf=50):
    return TransferLogRecord(
        transfer_id=i, src=src, dst=dst, src_site=src, dst_site=dst,
        src_type="GCS", dst_type="GCS", ts=ts, te=te, nb=nb,
        nf=nf, nd=1, c=c, p=p, nflt=0, distance_km=100.0,
    )


class TestOnlineMatchesRetrospective:
    def test_enclosing_competitors_exact_match(self):
        # Transfer of interest: id 0, [100, 200].  Competitors all span
        # [0, 1000] — active at start, outlive it.
        recs = [
            _rec(0, "A", "B", 100.0, 200.0, 1e10),
            _rec(1, "A", "C", 0.0, 1000.0, 5e11, c=4, p=2, nf=8),
            _rec(2, "C", "B", 0.0, 1000.0, 2e11, c=2, p=8, nf=100),
            _rec(3, "B", "A", 0.0, 1000.0, 1e11, c=1, p=1, nf=3),
        ]
        store = LogStore.from_records(recs)
        retro = ContentionComputer(store).compute(np.array([0]))

        active = []
        for r in recs[1:]:
            active.append(
                ActiveTransferView(
                    src=r.src, dst=r.dst, rate=r.rate, started_at=r.ts,
                    expected_end=r.te, concurrency=r.c, parallelism=r.p,
                    n_files=r.nf,
                )
            )
        est = OnlineFeatureEstimator(active)
        req = TransferRequest(
            src="A", dst="B", total_bytes=1e10, n_files=50,
            concurrency=2, parallelism=4,
        )
        online = est.estimate(req, now=100.0, assumed_duration_s=100.0)

        for key in ("K_sout", "K_sin", "K_dout", "K_din",
                    "S_sout", "S_sin", "S_dout", "S_din",
                    "G_src", "G_dst"):
            assert online[key] == pytest.approx(retro[key][0], rel=1e-9), key

    def test_competitor_ending_early_scales_identically(self):
        # Competitor covers only half of the window in both views.
        recs = [
            _rec(0, "A", "B", 100.0, 300.0, 1e10),
            _rec(1, "A", "C", 0.0, 200.0, 5e10, c=4, p=4, nf=100),
        ]
        store = LogStore.from_records(recs)
        retro = ContentionComputer(store).compute(np.array([0]))
        est = OnlineFeatureEstimator(
            [
                ActiveTransferView(
                    src="A", dst="C", rate=recs[1].rate, started_at=0.0,
                    expected_end=200.0, concurrency=4, parallelism=4,
                    n_files=100,
                )
            ]
        )
        req = TransferRequest(src="A", dst="B", total_bytes=1e10, n_files=50)
        online = est.estimate(req, now=100.0, assumed_duration_s=200.0)
        assert online["K_sout"] == pytest.approx(retro["K_sout"][0], rel=1e-9)
        assert online["S_sout"] == pytest.approx(retro["S_sout"][0], rel=1e-9)

    def test_future_arrivals_are_the_only_gap(self):
        """A competitor arriving after the transfer starts is seen by the
        retrospective features but invisible online — the documented
        limitation of submission-time prediction."""
        recs = [
            _rec(0, "A", "B", 100.0, 300.0, 1e10),
            _rec(1, "A", "C", 200.0, 400.0, 5e10),  # arrives mid-transfer
        ]
        store = LogStore.from_records(recs)
        retro = ContentionComputer(store).compute(np.array([0]))
        assert retro["K_sout"][0] > 0  # retrospective sees it

        est = _estimator_at(store, now=100.0, exclude_transfer_id=0)
        req = TransferRequest(src="A", dst="B", total_bytes=1e10, n_files=50)
        online = est.estimate(req, now=100.0, assumed_duration_s=200.0)
        assert online["K_sout"] == 0.0  # online cannot


CONTENTION_NAMES = (
    "K_sout", "K_sin", "K_dout", "K_din",
    "S_sout", "S_sin", "S_dout", "S_din",
    "G_src", "G_dst",
)


def _make_replay_store(seed, n_background=60, n_endpoints=6):
    """A log where every background transfer starts before T = 10_000 and
    the target transfer (the last record) starts exactly at T.  No arrivals
    during the target's lifetime, so online estimates can be exact."""
    rng = np.random.default_rng(seed)
    T = 10_000.0
    eps = [f"E{i}" for i in range(n_endpoints)]
    records = []
    for i in range(n_background):
        s, d = rng.choice(n_endpoints, size=2, replace=False)
        ts = float(rng.uniform(0.0, T - 1.0))
        te = ts + float(rng.uniform(10.0, 15_000.0))  # may end before or after T
        records.append(
            _rec(
                i, eps[s], eps[d], ts, te, float(rng.uniform(1e8, 1e12)),
                c=int(rng.choice([1, 2, 4, 8])), p=int(rng.choice([1, 4, 8])),
                nf=int(rng.integers(1, 500)),
            )
        )
    s, d = rng.choice(n_endpoints, size=2, replace=False)
    target = _rec(
        n_background, eps[s], eps[d], T, T + float(rng.uniform(100.0, 4000.0)),
        float(rng.uniform(1e9, 1e11)),
        c=int(rng.choice([2, 4])), p=int(rng.choice([4, 8])),
        nf=int(rng.integers(1, 500)),
    )
    records.append(target)
    return LogStore.from_records(records), target, T


def _target_request(target):
    return TransferRequest(
        src=target.src, dst=target.dst, total_bytes=target.nb,
        n_files=target.nf, n_dirs=target.nd,
        concurrency=target.c, parallelism=target.p,
    )


class TestRandomizedReplayParity:
    """Replay a random log: with actual end times supplied as
    ``expected_end``, online estimates equal retrospective features for
    every one of the ten contention features."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_online_matches_retrospective(self, seed):
        store, target, T = _make_replay_store(seed)
        data = store.raw()
        pos = int(np.nonzero(data["transfer_id"] == target.transfer_id)[0][0])
        retro = ContentionComputer(store).compute(np.array([pos]))

        est = _estimator_at(
            store, now=T, exclude_transfer_id=target.transfer_id
        )
        online = est.estimate(
            _target_request(target), now=T,
            assumed_duration_s=target.te - target.ts,
        )
        for name in CONTENTION_NAMES:
            assert online[name] == pytest.approx(
                retro[name][0], rel=1e-9, abs=1e-9
            ), name

    @pytest.mark.parametrize("seed", [0, 2])
    def test_batch_path_matches_retrospective(self, seed):
        """The vectorized serving path obeys the same parity invariant."""
        from repro.serve import ActiveSet, BatchOnlinePredictor
        from repro.serve.fixtures import make_synthetic_model

        store, target, T = _make_replay_store(seed)
        data = store.raw()
        pos = int(np.nonzero(data["transfer_id"] == target.transfer_id)[0][0])
        retro = ContentionComputer(store).compute(np.array([pos]))

        active = ActiveSet.from_log_window(
            store, now=T, exclude_transfer_id=target.transfer_id
        )
        engine = BatchOnlinePredictor(make_synthetic_model(0), active)
        feats = engine.estimate_features(
            [_target_request(target)], now=T,
            durations=np.array([target.te - target.ts]),
        )
        for name in CONTENTION_NAMES:
            assert feats[name][0] == pytest.approx(
                retro[name][0], rel=1e-9, abs=1e-9
            ), name
