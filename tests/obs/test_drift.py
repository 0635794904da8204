"""DriftMonitor: signed APE accounting, rolling windows, gauge export."""

import math

import numpy as np
import pytest

from repro.obs import DriftMonitor, MetricsRegistry, Observability
from repro.serve.fallback import ModelTier


class TestRecording:
    def test_signed_ape_sign_convention(self):
        mon = DriftMonitor(window=8)
        over = mon.record("A", "B", ModelTier.EDGE, 150.0, 100.0)
        under = mon.record("A", "B", ModelTier.EDGE, 50.0, 100.0)
        assert over == pytest.approx(50.0)
        assert under == pytest.approx(-50.0)
        stats = mon.overall()
        assert stats.n == 2
        assert stats.mdape == pytest.approx(50.0)
        assert stats.bias_pct == pytest.approx(0.0)

    def test_rejects_unusable_rates(self):
        mon = DriftMonitor()
        for predicted, realized in [
            (100.0, 0.0), (100.0, -5.0), (100.0, math.nan),
            (-1.0, 100.0), (math.inf, 100.0),
        ]:
            with pytest.raises(ValueError):
                mon.record("A", "B", ModelTier.EDGE, predicted, realized)
        assert mon.observations == 0

    def test_tier_accepts_enum_or_string(self):
        mon = DriftMonitor(window=4)
        mon.record("A", "B", ModelTier.GLOBAL, 100.0, 100.0)
        mon.record("A", "B", "global", 120.0, 100.0)
        assert mon.tier_stats("global").n == 2
        assert mon.tiers() == ["global"]

    def test_window_validation(self):
        with pytest.raises(ValueError):
            DriftMonitor(window=0)


class TestRollingWindowEviction:
    def test_old_samples_evicted_fifo(self):
        mon = DriftMonitor(window=4)
        # Four terrible predictions, then four perfect ones: with a
        # window of 4 the early errors must be fully evicted.
        for _ in range(4):
            mon.record("A", "B", ModelTier.EDGE, 300.0, 100.0)
        assert mon.edge_stats("A", "B").mdape == pytest.approx(200.0)
        for _ in range(4):
            mon.record("A", "B", ModelTier.EDGE, 100.0, 100.0)
        stats = mon.edge_stats("A", "B")
        assert stats.n == 4
        assert stats.mdape == pytest.approx(0.0)
        # The monotonic observation counter still remembers everything.
        assert mon.observations == 8

    def test_windows_are_per_scope(self):
        mon = DriftMonitor(window=2)
        mon.record("A", "B", ModelTier.EDGE, 200.0, 100.0)
        mon.record("C", "D", ModelTier.MEDIAN, 100.0, 100.0)
        assert mon.edge_stats("A", "B").n == 1
        assert mon.edge_stats("C", "D").n == 1
        assert mon.overall().n == 2
        assert mon.edges() == [("A", "B"), ("C", "D")]

    def test_percentiles_match_numpy(self):
        mon = DriftMonitor(window=256)
        rng = np.random.default_rng(3)
        realized = rng.uniform(50.0, 150.0, 100)
        for r in realized:
            mon.record("A", "B", ModelTier.EDGE, 100.0, float(r))
        apes = np.abs((100.0 - realized) / realized * 100.0)
        stats = mon.edge_stats("A", "B")
        assert stats.mdape == pytest.approx(float(np.percentile(apes, 50)))
        assert stats.p95_ape == pytest.approx(float(np.percentile(apes, 95)))


class TestRecordBatch:
    @staticmethod
    def _rows(n=70, seed=3):
        rng = np.random.default_rng(seed)
        edges = [("A", "B"), ("B", "C"), ("A", "C"), ("C", "A")]
        tiers = [ModelTier.EDGE, ModelTier.GLOBAL, "median"]
        rows = []
        for i in range(n):
            src, dst = edges[int(rng.integers(len(edges)))]
            realized = float(rng.uniform(50, 200))
            rows.append((src, dst, tiers[int(rng.integers(len(tiers)))],
                         realized * float(rng.uniform(0.3, 2.0)), realized))
        return rows

    @staticmethod
    def _drift_gauges(registry):
        return {k: v.hex() for k, v in registry.flat().items()
                if k.startswith("drift_")}

    def test_bit_equal_to_looping_record(self):
        rows = self._rows()
        looped_registry, batched_registry = MetricsRegistry(), MetricsRegistry()
        looped = DriftMonitor(registry=looped_registry, window=16)
        batched = DriftMonitor(registry=batched_registry, window=16)
        looped_apes = [looped.record(*row) for row in rows]
        batched_apes = []
        for lo, hi in ((0, 1), (1, 9), (9, 9), (9, 40), (40, 70)):
            columns = [[row[j] for row in rows[lo:hi]] for j in range(5)]
            batched_apes += [ape for _, _, _, ape in
                             batched.record_batch(*columns)]
        assert [v.hex() for v in batched_apes] == \
            [v.hex() for v in looped_apes]
        assert batched.dump_state() == looped.dump_state()
        assert self._drift_gauges(batched_registry) == \
            self._drift_gauges(looped_registry)

    def test_fold_state_replays_the_returned_samples(self):
        rows = self._rows()
        mon = DriftMonitor(window=16)
        mon.record_batch(*[[row[j] for row in rows[:5]] for j in range(5)])
        state = mon.dump_state()
        samples = mon.record_batch(
            *[[row[j] for row in rows[5:]] for j in range(5)])
        assert [tier for _, _, tier, _ in samples] == [
            getattr(row[2], "value", row[2]) for row in rows[5:]]
        # JSON round trip, as the samples travel through a journal.
        samples = [list(sample) for sample in samples]
        assert DriftMonitor.fold_state(state, samples) == mon.dump_state()

    def test_bad_row_leaves_the_monitor_untouched(self):
        mon = DriftMonitor(window=8)
        with pytest.raises(ValueError):
            mon.record_batch(["A", "A"], ["B", "B"], ["edge", "edge"],
                             [100.0, 100.0], [100.0, 0.0])
        assert mon.observations == 0
        assert mon.dump_state()["edges"] == []

    def test_edge_stats_over_the_newest_samples(self):
        mon = DriftMonitor(window=16)
        apes = []
        for i in range(20):
            apes.append(mon.record("A", "B", "edge", 100.0 + 7.0 * i, 100.0))
        window = apes[-16:]
        for last in (1, 5, 16):
            stats = mon.edge_stats("A", "B", last=last)
            assert stats.n == last
            assert stats.mdape == pytest.approx(
                np.percentile(np.abs(window[-last:]), 50))
        assert mon.edge_stats("A", "B", last=99) == mon.edge_stats("A", "B")
        assert mon.edge_stats("A", "B", last=0).n == 0
        assert mon.edge_stats("X", "Y", last=3).n == 0


class TestExportAndReset:
    def test_gauges_exported_per_scope(self):
        reg = MetricsRegistry()
        mon = DriftMonitor(registry=reg, window=8)
        mon.record("A", "B", ModelTier.EDGE, 110.0, 100.0)
        flat = reg.flat()
        assert flat['drift_mdape{key="A->B",scope="edge"}'] == pytest.approx(10.0)
        assert flat['drift_mdape{key="edge",scope="tier"}'] == pytest.approx(10.0)
        assert flat['drift_samples{key="all",scope="overall"}'] == 1
        assert flat["drift_observations_total"] == 1

    def test_empty_stats_are_nan(self):
        stats = DriftMonitor().edge_stats("X", "Y")
        assert stats.n == 0
        assert math.isnan(stats.mdape)
        assert math.isnan(stats.p95_ape)

    def test_snapshot_shape(self):
        mon = DriftMonitor(window=8)
        mon.record("A", "B", ModelTier.MEDIAN, 90.0, 100.0)
        snap = mon.snapshot()
        assert snap["observations"] == 1
        assert snap["edges"]["A->B"]["n"] == 1
        assert snap["tiers"]["median"]["mdape"] == pytest.approx(10.0)

    def test_reset(self):
        mon = DriftMonitor(window=8)
        mon.record("A", "B", ModelTier.EDGE, 90.0, 100.0)
        mon.reset()
        assert mon.observations == 0
        assert mon.overall().n == 0
        assert mon.edges() == []


class TestObservabilityBundle:
    def test_create_shares_one_registry(self):
        obs = Observability.create()
        assert obs.tracer.registry is obs.registry
        assert obs.drift.registry is obs.registry
        with obs.tracer.span("x"):
            pass
        obs.drift.record("A", "B", ModelTier.EDGE, 100.0, 100.0)
        flat = obs.registry.flat()
        assert flat['trace_spans_total{span="x"}'] == 1
        assert flat["drift_observations_total"] == 1

    def test_create_without_tracing(self):
        obs = Observability.create(trace=False)
        assert not obs.tracer.enabled


class TestDumpAndRestore:
    """dump_state/load_snapshot: the durability layer's lossless window
    transfer, including gauge re-export on restore."""

    def _populated(self, registry=None):
        mon = DriftMonitor(window=16, registry=registry)
        rng = np.random.default_rng(4)
        edges = [("A", "B"), ("B", "C"), ("A", "C")]
        tiers = [ModelTier.EDGE, ModelTier.GLOBAL, "median"]
        for i in range(40):
            src, dst = edges[i % 3]
            realized = float(rng.uniform(50, 200))
            mon.record(src, dst, tiers[i % 3],
                       realized * float(rng.uniform(0.6, 1.4)), realized)
        return mon

    def test_roundtrip_is_lossless(self):
        source = self._populated()
        restored = DriftMonitor(window=16)
        restored.load_snapshot(source.dump_state())
        assert restored.dump_state() == source.dump_state()
        assert restored.snapshot() == source.snapshot()
        assert restored.observations == source.observations

    def test_restore_reexports_gauges(self):
        source_registry = MetricsRegistry()
        source = self._populated(registry=source_registry)
        target_registry = MetricsRegistry()
        restored = DriftMonitor(window=16, registry=target_registry)
        restored.load_snapshot(source.dump_state())
        drift_of = lambda reg: {
            k: v for k, v in reg.flat().items() if k.startswith("drift_")
        }
        assert drift_of(target_registry) == drift_of(source_registry)

    def test_restore_into_smaller_window_keeps_newest(self):
        source = self._populated()
        restored = DriftMonitor(window=4)
        restored.load_snapshot(source.dump_state())
        dumped = source.dump_state()
        assert restored.dump_state()["overall"] == dumped["overall"][-4:]
        # Aggregates reflect the truncated window, not the full history.
        assert restored.overall().n == 4

    def test_restore_continues_recording(self):
        source = self._populated()
        restored = DriftMonitor(window=16)
        restored.load_snapshot(source.dump_state())
        before = restored.observations
        restored.record("A", "B", ModelTier.EDGE, 110.0, 100.0)
        assert restored.observations == before + 1

    def test_empty_monitor_roundtrip(self):
        source = DriftMonitor(window=8)
        restored = DriftMonitor(window=8)
        restored.load_snapshot(source.dump_state())
        assert restored.observations == 0
        assert restored.dump_state() == source.dump_state()
